package dax

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"deco/internal/dag"
	"deco/internal/wfgen"
)

// FuzzParse feeds arbitrary bytes to the DAX reader, seeded with the four
// wfgen application families written by Write plus truncated and malformed
// documents. Parse must never panic, must return exactly one of a workflow
// or an error, and a workflow it accepts must carry only finite,
// non-negative runtimes and file sizes and survive Write → Parse with the
// same tasks (ID, executable, runtime) and the same edges.
//
// Run it with: go test -run '^$' -fuzz FuzzParse -fuzztime 20s -fuzzminimizetime 5s ./internal/dax/
func FuzzParse(f *testing.F) {
	gens := []func(*rand.Rand) (*dag.Workflow, error){
		func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Montage(1, r) },
		func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Ligo(1, r) },
		func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Epigenomics(1, 2, r) },
		func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.CyberShake(1, 2, r) },
	}
	for _, gen := range gens {
		w, err := gen(rand.New(rand.NewSource(7)))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, w); err != nil {
			f.Fatal(err)
		}
		doc := buf.Bytes()
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
	}
	for _, doc := range []string{
		``,
		`<adag`,
		`<adag name="x"><job id="a" name="p" runtime="1"></adag>`,
		`<adag><job id="a" name="p" runtime="-3"/></adag>`,
		`<adag><job id="a" name="p" runtime="NaN"/></adag>`,
		`<adag><job id="a" name="p"><uses file="f" link="inout" size="1"/></job></adag>`,
		`<adag><job id="a" name="p"><uses file="f" link="input" size="x"/></job></adag>`,
		`<adag><job id="a" name="p"/><job id="a" name="q"/></adag>`,
		`<adag><job id="a" name="p"/><job id="b" name="q"/><child ref="a"><parent ref="b"/></child><child ref="b"><parent ref="a"/></child></adag>`,
		`<adag><job id="a" name="p"/><child ref="a"><parent ref="zz"/></child></adag>`,
		`<adag><job id="a&#1;" name="p"/></adag>`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		w, err := Parse(bytes.NewReader(doc))
		if (w == nil) == (err == nil) {
			t.Fatalf("Parse returned workflow %v and error %v; want exactly one", w != nil, err)
		}
		if err != nil {
			return
		}
		for _, task := range w.Tasks {
			ok := finiteNonNegative(task.CPUSeconds)
			for _, f := range append(append([]dag.File(nil), task.Inputs...), task.Outputs...) {
				ok = ok && finiteNonNegative(f.SizeMB)
			}
			if !ok {
				t.Fatalf("accepted task %q with runtime %v, inputs %v, outputs %v", task.ID, task.CPUSeconds, task.Inputs, task.Outputs)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, w); err != nil {
			t.Fatalf("Write of an accepted workflow: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parsing the written workflow: %v\n%s", err, buf.String())
		}
		if back.Len() != w.Len() {
			t.Fatalf("round trip: %d tasks, want %d", back.Len(), w.Len())
		}
		for i, want := range w.Tasks {
			got := back.Tasks[i]
			if got.ID != want.ID || got.Executable != want.Executable ||
				math.Float64bits(got.CPUSeconds) != math.Float64bits(want.CPUSeconds) {
				t.Fatalf("round trip: task %d is %q %q %v, want %q %q %v",
					i, got.ID, got.Executable, got.CPUSeconds, want.ID, want.Executable, want.CPUSeconds)
			}
		}
		we, be := w.Edges(), back.Edges()
		if len(we) != len(be) {
			t.Fatalf("round trip: %d edges, want %d", len(be), len(we))
		}
		for i := range we {
			if we[i] != be[i] {
				t.Fatalf("round trip: edge %d is %v, want %v", i, be[i], we[i])
			}
		}
	})
}
