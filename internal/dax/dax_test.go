package dax

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"deco/internal/dag"
)

// pipelineDAX is the example document from Figure 4 of the paper (a pipeline
// workflow where ID02 consumes ID01's output).
const pipelineDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag name="pipeline">
  <job id="ID01" name="process1" runtime="30">
    <uses file="f.a" link="input" size="1048576"/>
    <uses file="f.b1" link="output" size="2097152"/>
  </job>
  <job id="ID02" name="process2" runtime="45">
    <uses file="f.b1" link="input" size="2097152"/>
    <uses file="f.c" link="output" size="524288"/>
  </job>
  <child ref="ID02">
    <parent ref="ID01"/>
  </child>
</adag>`

func TestParsePipeline(t *testing.T) {
	w, err := Parse(strings.NewReader(pipelineDAX))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "pipeline" || w.Len() != 2 {
		t.Fatalf("name=%q len=%d", w.Name, w.Len())
	}
	t1 := w.Task("ID01")
	if t1 == nil || t1.Executable != "process1" || t1.CPUSeconds != 30 {
		t.Fatalf("ID01 = %+v", t1)
	}
	if t1.Inputs[0].SizeMB != 1 {
		t.Errorf("input size %v MB, want 1", t1.Inputs[0].SizeMB)
	}
	if t1.Outputs[0].SizeMB != 2 {
		t.Errorf("output size %v MB, want 2", t1.Outputs[0].SizeMB)
	}
	if cs := w.Children("ID01"); len(cs) != 1 || cs[0] != "ID02" {
		t.Errorf("children of ID01 = %v", cs)
	}
}

func TestParseImplicitDataDependency(t *testing.T) {
	// No <child> element: the edge must come from the f.b1 data dependency.
	doc := strings.Replace(pipelineDAX, "<child ref=\"ID02\">\n    <parent ref=\"ID01\"/>\n  </child>", "", 1)
	w, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cs := w.Children("ID01"); len(cs) != 1 || cs[0] != "ID02" {
		t.Errorf("implicit edge missing: children = %v", cs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"garbage", "not xml at all"},
		{"bad runtime", `<adag name="x"><job id="a" name="p" runtime="zzz"/></adag>`},
		{"negative runtime", `<adag name="x"><job id="a" name="p" runtime="-5"/></adag>`},
		{"NaN runtime", `<adag name="x"><job id="a" name="p" runtime="NaN"/></adag>`},
		{"infinite runtime", `<adag name="x"><job id="a" name="p" runtime="+Inf"/></adag>`},
		{"negative size", `<adag name="x"><job id="a" name="p"><uses file="f" link="input" size="-1"/></job></adag>`},
		{"NaN size", `<adag name="x"><job id="a" name="p"><uses file="f" link="input" size="NaN"/></job></adag>`},
		{"infinite size", `<adag name="x"><job id="a" name="p"><uses file="f" link="output" size="1e999"/></job></adag>`},
		{"bad size", `<adag name="x"><job id="a" name="p"><uses file="f" link="input" size="NaNb"/></job></adag>`},
		{"bad link", `<adag name="x"><job id="a" name="p"><uses file="f" link="sideways"/></job></adag>`},
		{"dup id", `<adag name="x"><job id="a" name="p"/><job id="a" name="q"/></adag>`},
		{"unknown parent", `<adag name="x"><job id="a" name="p"/><child ref="a"><parent ref="zz"/></child></adag>`},
		{"cycle", `<adag name="x"><job id="a" name="p"/><job id="b" name="q"/>` +
			`<child ref="a"><parent ref="b"/></child><child ref="b"><parent ref="a"/></child></adag>`},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	w, err := Parse(strings.NewReader(`<adag><job id="a" name="p"/></adag>`))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "workflow" {
		t.Errorf("default name %q", w.Name)
	}
	if w.Task("a").CPUSeconds != 0 {
		t.Errorf("default runtime %v", w.Task("a").CPUSeconds)
	}
}

func TestRoundTrip(t *testing.T) {
	w, err := Parse(strings.NewReader(pipelineDAX))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, buf.String())
	}
	if w2.Len() != w.Len() || w2.Name != w.Name {
		t.Fatalf("round trip lost structure")
	}
	for _, task := range w.Tasks {
		got := w2.Task(task.ID)
		if got == nil || got.CPUSeconds != task.CPUSeconds || got.Executable != task.Executable {
			t.Errorf("task %s changed: %+v vs %+v", task.ID, got, task)
		}
		if len(got.Inputs) != len(task.Inputs) || len(got.Outputs) != len(task.Outputs) {
			t.Errorf("task %s files changed", task.ID)
		}
	}
	if len(w2.Edges()) != len(w.Edges()) {
		t.Errorf("edges changed: %v vs %v", w2.Edges(), w.Edges())
	}
}

func TestWriteAndParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wf.dax")

	w := dag.New("disk")
	_ = w.AddTask(&dag.Task{ID: "t1", Executable: "e1", CPUSeconds: 12,
		Outputs: []dag.File{{Name: "o", SizeMB: 3}}})
	_ = w.AddTask(&dag.Task{ID: "t2", Executable: "e2", CPUSeconds: 8,
		Inputs: []dag.File{{Name: "o", SizeMB: 3}}})
	_ = w.AddEdge("t1", "t2")

	if err := WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Task("t2").Inputs[0].SizeMB != 3 {
		t.Fatalf("file round trip mismatch: %+v", got)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.dax")); err == nil {
		t.Error("missing file should error")
	}
}
