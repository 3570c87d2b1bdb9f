package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// diamond builds the four-task diamond A -> (B, C) -> D.
func diamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	for _, id := range []string{"A", "B", "C", "D"} {
		if err := w.AddTask(&Task{ID: id, CPUSeconds: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}} {
		if err := w.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestAddTaskValidation(t *testing.T) {
	w := New("w")
	if err := w.AddTask(&Task{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := w.AddTask(&Task{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(&Task{ID: "a"}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	w := New("w")
	_ = w.AddTask(&Task{ID: "a"})
	_ = w.AddTask(&Task{ID: "b"})
	if err := w.AddEdge("a", "x"); err == nil {
		t.Error("unknown child accepted")
	}
	if err := w.AddEdge("x", "b"); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := w.AddEdge("a", "a"); err == nil {
		t.Error("self edge accepted")
	}
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	// Duplicate edges are a no-op.
	if err := w.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if len(w.Children("a")) != 1 {
		t.Errorf("duplicate edge stored: %v", w.Children("a"))
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	w := diamond(t)
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range w.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violated in order %v", e, order)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cyclic")
	for _, id := range []string{"a", "b", "c"} {
		_ = w.AddTask(&Task{ID: id})
	}
	_ = w.AddEdge("a", "b")
	_ = w.AddEdge("b", "c")
	_ = w.AddEdge("c", "a")
	if err := w.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestMakespanDiamond(t *testing.T) {
	w := diamond(t)
	dur := map[string]float64{"A": 5, "B": 10, "C": 20, "D": 1}
	ms, finish, err := w.Makespan(dur)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 26 { // A(5) + C(20) + D(1)
		t.Errorf("makespan %v, want 26", ms)
	}
	if finish["B"] != 15 || finish["C"] != 25 {
		t.Errorf("finish times wrong: %v", finish)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	w := diamond(t)
	dur := map[string]float64{"A": 5, "B": 10, "C": 20, "D": 1}
	path, length, err := w.CriticalPath(dur)
	if err != nil {
		t.Fatal(err)
	}
	if length != 26 {
		t.Errorf("length %v, want 26", length)
	}
	want := []string{"A", "C", "D"}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestRootsLeavesLevels(t *testing.T) {
	w := diamond(t)
	if r := w.Roots(); len(r) != 1 || r[0] != "A" {
		t.Errorf("roots %v", r)
	}
	if l := w.Leaves(); len(l) != 1 || l[0] != "D" {
		t.Errorf("leaves %v", l)
	}
	levels, err := w.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || len(levels[1]) != 2 {
		t.Errorf("levels %v", levels)
	}
}

func TestTransferMB(t *testing.T) {
	w := New("xfer")
	_ = w.AddTask(&Task{ID: "p1", Outputs: []File{{Name: "f1", SizeMB: 100}}})
	_ = w.AddTask(&Task{ID: "p2", Outputs: []File{{Name: "f2", SizeMB: 50}}})
	_ = w.AddTask(&Task{ID: "c", Inputs: []File{
		{Name: "f1", SizeMB: 100}, {Name: "f2", SizeMB: 50}, {Name: "ext", SizeMB: 7},
	}})
	_ = w.AddEdge("p1", "c")
	_ = w.AddEdge("p2", "c")

	// Nothing co-located: everything transfers.
	got := w.TransferMB("c", func(string) bool { return false })
	if got != 157 {
		t.Errorf("transfer %v, want 157", got)
	}
	// p1 co-located: its file is local.
	got = w.TransferMB("c", func(p string) bool { return p == "p1" })
	if got != 57 {
		t.Errorf("transfer %v, want 57", got)
	}
	// Unknown task.
	if w.TransferMB("zz", func(string) bool { return true }) != 0 {
		t.Error("unknown task should transfer 0")
	}
}

func TestInputOutputMB(t *testing.T) {
	task := &Task{
		Inputs:  []File{{SizeMB: 1}, {SizeMB: 2}},
		Outputs: []File{{SizeMB: 4}},
	}
	if task.InputMB() != 3 || task.OutputMB() != 4 {
		t.Errorf("in=%v out=%v", task.InputMB(), task.OutputMB())
	}
}

func TestCloneIndependence(t *testing.T) {
	w := diamond(t)
	w.Priority = 3
	w.DeadlineSeconds = 100
	w.DeadlinePercentile = 0.95
	c := w.Clone()
	if c.Len() != 4 || c.Priority != 3 || c.DeadlineSeconds != 100 || c.DeadlinePercentile != 0.95 {
		t.Fatal("clone lost metadata")
	}
	// Mutating the clone must not touch the original.
	c.Task("A").CPUSeconds = 999
	if w.Task("A").CPUSeconds == 999 {
		t.Error("clone shares task memory")
	}
	if err := c.AddEdge("B", "C"); err != nil {
		t.Fatal(err)
	}
	if len(w.Children("B")) != 1 {
		t.Error("clone shares edge maps")
	}
}

func TestTotalCPUSeconds(t *testing.T) {
	w := diamond(t)
	if got := w.TotalCPUSeconds(); got != 40 {
		t.Errorf("total %v", got)
	}
}

// randomDAG builds a random layered DAG for property testing.
func randomDAG(r *rand.Rand, n int) *Workflow {
	w := New("rand")
	for i := 0; i < n; i++ {
		_ = w.AddTask(&Task{ID: string(rune('a' + i)), CPUSeconds: float64(r.Intn(100) + 1)})
	}
	// Edges only from lower to higher index: acyclic by construction.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				_ = w.AddEdge(string(rune('a'+i)), string(rune('a'+j)))
			}
		}
	}
	return w
}

// Property: makespan >= max task duration and <= sum of durations, and the
// critical-path length always equals the makespan.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		r := rand.New(rand.NewSource(seed))
		w := randomDAG(r, n)
		dur := map[string]float64{}
		maxD, sumD := 0.0, 0.0
		for _, task := range w.Tasks {
			d := float64(r.Intn(50) + 1)
			dur[task.ID] = d
			if d > maxD {
				maxD = d
			}
			sumD += d
		}
		ms, _, err := w.Makespan(dur)
		if err != nil {
			return false
		}
		_, cp, err := w.CriticalPath(dur)
		if err != nil {
			return false
		}
		return ms >= maxD && ms <= sumD && ms == cp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: topological order is consistent with every edge.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 1
		r := rand.New(rand.NewSource(seed))
		w := randomDAG(r, n)
		order, err := w.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range w.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteDOT(t *testing.T) {
	w := diamond(t)
	var buf strings.Builder
	colors := map[string]string{"A": "lightblue"}
	err := w.WriteDOT(&buf, func(id string) string { return colors[id] })
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`digraph "diamond"`, `"A" -> "B"`, `"C" -> "D"`, "lightblue"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Nil colorOf works too.
	var buf2 strings.Builder
	if err := w.WriteDOT(&buf2, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "lightblue") {
		t.Error("nil colorOf colored nodes")
	}
}

// TestFlatSinks checks Flat.Sinks against Workflow.Children on the diamond
// and on random DAGs: exactly the childless tasks, ascending.
func TestFlatSinks(t *testing.T) {
	ws := []*Workflow{diamond(t)}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		w := New("rand")
		ids := make([]string, n)
		for i := range ids {
			ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := w.AddTask(&Task{ID: ids[i], CPUSeconds: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					if err := w.AddEdge(ids[i], ids[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		f, err := w.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i, id := range f.IDs {
			if len(w.Children(id)) == 0 {
				want = append(want, int32(i))
			}
		}
		if fmt.Sprint(f.Sinks) != fmt.Sprint(want) {
			t.Fatalf("%s: sinks %v, want %v", w.Name, f.Sinks, want)
		}
	}
	if f, _ := ws[0].Flatten(); len(f.Sinks) != 1 || f.IDs[f.Sinks[0]] != "D" {
		t.Fatalf("diamond sinks %v, want [D]", f.Sinks)
	}
}

// TestLazyCachesConcurrentFirstUse fills the topological-order and flat
// caches from several goroutines at once on a never-used workflow; every
// caller must see the same cached values. Run it under -race -count=10.
func TestLazyCachesConcurrentFirstUse(t *testing.T) {
	w := randomDAG(rand.New(rand.NewSource(11)), 60)
	const workers = 8
	orders := make([][]string, workers)
	flats := make([]*Flat, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				flats[g], errs[g] = w.Flatten()
				if errs[g] == nil {
					orders[g], errs[g] = w.TopoOrder()
				}
				return
			}
			orders[g], errs[g] = w.TopoOrder()
			if errs[g] == nil {
				flats[g], errs[g] = w.Flatten()
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if flats[g] != flats[0] {
			t.Errorf("worker %d got a different flat form", g)
		}
		if &orders[g][0] != &orders[0][0] {
			t.Errorf("worker %d got a different topological order", g)
		}
	}
}

// TestLazyCachesInvalidate checks AddTask and AddEdge drop both caches.
func TestLazyCachesInvalidate(t *testing.T) {
	w := diamond(t)
	f, err := w.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(&Task{ID: "E", CPUSeconds: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := w.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if g == f || g.Len() != 5 {
		t.Fatalf("flat form not rebuilt after AddTask: %d tasks", g.Len())
	}
	if err := w.AddEdge("D", "E"); err != nil {
		t.Fatal(err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[len(order)-1] != "E" {
		t.Errorf("topological order not rebuilt after AddEdge: %v", order)
	}
	h, err := w.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if h == g || len(h.Parents) != len(g.Parents)+1 {
		t.Error("flat form not rebuilt after AddEdge")
	}
}
