// Package dax reads and writes Pegasus DAX workflow descriptions (the XML
// format in Figure 4 of the paper). A DAX document lists <job> elements —
// each with an executable name and <uses> file declarations (link="input" or
// "output") — and <child>/<parent> elements declaring dependencies.
//
// Deco's import(daxfile) construct is backed by this package: parsing a DAX
// yields the workflow-related facts (task/1, edge/2, file sizes) that WLog
// programs consume.
package dax

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"deco/internal/dag"
)

// adag mirrors the <adag> root element of a DAX document.
type adag struct {
	XMLName xml.Name   `xml:"adag"`
	Name    string     `xml:"name,attr"`
	Jobs    []job      `xml:"job"`
	Childs  []childDep `xml:"child"`
}

type job struct {
	ID      string  `xml:"id,attr"`
	Name    string  `xml:"name,attr"` // executable, e.g. "process1"
	Runtime string  `xml:"runtime,attr"`
	Uses    []usage `xml:"uses"`
}

type usage struct {
	File string `xml:"file,attr"`
	Link string `xml:"link,attr"` // "input" or "output"
	Size string `xml:"size,attr"` // bytes (Pegasus convention)
}

type childDep struct {
	Ref     string      `xml:"ref,attr"`
	Parents []parentRef `xml:"parent"`
}

type parentRef struct {
	Ref string `xml:"ref,attr"`
}

// Parse decodes a DAX document into a Workflow. File sizes in the DAX are in
// bytes and are converted to MB; job runtimes are reference CPU seconds.
func Parse(r io.Reader) (*dag.Workflow, error) {
	var doc adag
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("dax: %w", err)
	}
	name := doc.Name
	if name == "" {
		name = "workflow"
	}
	w := dag.New(name)
	producers := map[string]string{} // file name -> producing task
	for _, j := range doc.Jobs {
		t := &dag.Task{ID: j.ID, Executable: j.Name}
		if j.Runtime != "" {
			rt, err := strconv.ParseFloat(j.Runtime, 64)
			if err != nil {
				return nil, fmt.Errorf("dax: job %s: bad runtime %q: %w", j.ID, j.Runtime, err)
			}
			if !finiteNonNegative(rt) {
				return nil, fmt.Errorf("dax: job %s: runtime %v is not a finite non-negative number", j.ID, rt)
			}
			t.CPUSeconds = rt
		}
		for _, u := range j.Uses {
			sizeMB := 0.0
			if u.Size != "" {
				b, err := strconv.ParseFloat(u.Size, 64)
				if err != nil {
					return nil, fmt.Errorf("dax: job %s: bad size %q: %w", j.ID, u.Size, err)
				}
				if !finiteNonNegative(b) {
					return nil, fmt.Errorf("dax: job %s: size %v of file %q is not a finite non-negative number", j.ID, b, u.File)
				}
				sizeMB = b / (1 << 20)
			}
			f := dag.File{Name: u.File, SizeMB: sizeMB}
			switch u.Link {
			case "input":
				t.Inputs = append(t.Inputs, f)
			case "output":
				t.Outputs = append(t.Outputs, f)
				producers[u.File] = j.ID
			default:
				return nil, fmt.Errorf("dax: job %s: unknown link %q for file %q", j.ID, u.Link, u.File)
			}
		}
		if err := w.AddTask(t); err != nil {
			return nil, err
		}
	}
	// Explicit child/parent dependencies.
	for _, c := range doc.Childs {
		for _, p := range c.Parents {
			if err := w.AddEdge(p.Ref, c.Ref); err != nil {
				return nil, err
			}
		}
	}
	// Implicit data dependencies: a task consuming a file another produces.
	for _, t := range w.Tasks {
		for _, f := range t.Inputs {
			if p, ok := producers[f.Name]; ok && p != t.ID {
				if err := w.AddEdge(p, t.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// finiteNonNegative reports whether v is a usable runtime or size: NaN and
// ±Inf parse as floats but would poison every duration and cost downstream.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// ParseFile parses the DAX document at path.
func ParseFile(path string) (*dag.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Write encodes a workflow as a DAX document.
func Write(wr io.Writer, w *dag.Workflow) error {
	doc := adag{Name: w.Name}
	for _, t := range w.Tasks {
		j := job{ID: t.ID, Name: t.Executable, Runtime: strconv.FormatFloat(t.CPUSeconds, 'g', -1, 64)}
		for _, f := range t.Inputs {
			j.Uses = append(j.Uses, usage{File: f.Name, Link: "input", Size: strconv.FormatFloat(f.SizeMB*(1<<20), 'f', 0, 64)})
		}
		for _, f := range t.Outputs {
			j.Uses = append(j.Uses, usage{File: f.Name, Link: "output", Size: strconv.FormatFloat(f.SizeMB*(1<<20), 'f', 0, 64)})
		}
		doc.Jobs = append(doc.Jobs, j)
	}
	// Group edges by child, deterministically.
	byChild := map[string][]string{}
	for _, e := range w.Edges() {
		byChild[e[1]] = append(byChild[e[1]], e[0])
	}
	var childIDs []string
	for c := range byChild {
		childIDs = append(childIDs, c)
	}
	sort.Strings(childIDs)
	for _, c := range childIDs {
		cd := childDep{Ref: c}
		sort.Strings(byChild[c])
		for _, p := range byChild[c] {
			cd.Parents = append(cd.Parents, parentRef{Ref: p})
		}
		doc.Childs = append(doc.Childs, cd)
	}
	if _, err := io.WriteString(wr, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(wr)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("dax: %w", err)
	}
	return enc.Close()
}

// WriteFile writes the workflow as a DAX document at path.
func WriteFile(path string, w *dag.Workflow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
