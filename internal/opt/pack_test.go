package opt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/sim"
	"deco/internal/wfgen"
)

// oraclePack is the map-keyed packing the flat routine replaced, kept
// verbatim as a differential oracle: string-keyed config and mean maps, the
// map-adapter makespan, a stable sort over task IDs, and slots matched by
// type name. It returns the Place map and the hour-billed cost.
func oraclePack(w *dag.Workflow, config State, tbl *estimate.Table, prices []float64, region string) (*sim.Plan, float64, error) {
	if len(config) != w.Len() {
		return nil, 0, fmt.Errorf("opt: config length %d, want %d", len(config), w.Len())
	}
	cfg := make(map[string]int, w.Len())
	for i, t := range w.Tasks {
		cfg[t.ID] = config[i]
	}
	means, err := tbl.MeanDurations(cfg)
	if err != nil {
		return nil, 0, err
	}
	_, finish, err := w.Makespan(means)
	if err != nil {
		return nil, 0, err
	}
	order, err := w.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	starts := make(map[string]float64, len(order))
	for _, id := range order {
		starts[id] = finish[id] - means[id]
	}
	ids := append([]string(nil), order...)
	sort.SliceStable(ids, func(a, b int) bool { return starts[ids[a]] < starts[ids[b]] })

	type span struct {
		typ        string
		typeIdx    int
		start, end float64
		used       bool
	}
	var slots []span
	plan := &sim.Plan{Place: make(map[string]sim.Placement, w.Len())}
	const hour = 3600.0
	for _, id := range ids {
		j := cfg[id]
		typ := tbl.Types[j]
		st, fin := starts[id], finish[id]
		bestSlot := -1
		for si := range slots {
			if slots[si].typ != typ || slots[si].end > st {
				continue
			}
			if st-slots[si].end <= hour {
				bestSlot = si
				break
			}
		}
		if bestSlot < 0 {
			slots = append(slots, span{typ: typ, typeIdx: j, start: st})
			bestSlot = len(slots) - 1
		} else if !slots[bestSlot].used {
			slots[bestSlot].start = st
		}
		slots[bestSlot].used = true
		slots[bestSlot].end = fin
		plan.Place[id] = sim.Placement{Slot: bestSlot, Type: typ, Region: region}
	}
	total := 0.0
	for _, s := range slots {
		hours := (s.end - s.start) / 3600
		if hours <= 0 {
			hours = 0
		}
		billed := float64(int(hours) + 1)
		if hours == float64(int(hours)) && hours > 0 {
			billed = hours
		}
		total += billed * prices[s.typeIdx]
	}
	return plan, total, nil
}

// packFamilies builds one workflow per wfgen family plus three hand-made
// shapes: a fan whose identical middle tasks all start together and whose
// tasks are inserted in reverse topological order (ties must break by
// topological order, not insertion order), chains of zero-duration tasks
// sharing one mean start, and a fork whose short branch leaves its instance
// idle for more than an hour before the join (the join must not reuse it).
func packFamilies(t testing.TB) []*dag.Workflow {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var ws []*dag.Workflow
	add := func(w *dag.Workflow, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	add(wfgen.Montage(1, rng))
	add(wfgen.CyberShake(3, 4, rng))
	add(wfgen.Ligo(2, rng))
	add(wfgen.Epigenomics(2, 3, rng))
	add(wfgen.Pipeline(12, rng))
	add(wfgen.Bag(24, 900, rng))

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	fan := dag.New("fan")
	must(fan.AddTask(&dag.Task{ID: "sink", Executable: "k", CPUSeconds: 100}))
	for i := 15; i >= 0; i-- {
		must(fan.AddTask(&dag.Task{ID: fmt.Sprintf("m%02d", i), Executable: "m", CPUSeconds: 1200}))
	}
	must(fan.AddTask(&dag.Task{ID: "src", Executable: "s", CPUSeconds: 100}))
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("m%02d", i)
		must(fan.AddEdge("src", id))
		must(fan.AddEdge(id, "sink"))
	}
	ws = append(ws, fan)

	// Zero-duration tasks (no CPU time, no files) start when their parents
	// finish, so each chain of them shares one mean start; inserted in
	// reverse topological order, only the topological rank orders them.
	zeros := dag.New("zeros")
	for i := 5; i >= 0; i-- {
		must(zeros.AddTask(&dag.Task{ID: fmt.Sprintf("z%d", i), Executable: "z"}))
	}
	must(zeros.AddTask(&dag.Task{ID: "head", Executable: "h", CPUSeconds: 600}))
	must(zeros.AddTask(&dag.Task{ID: "tail", Executable: "t", CPUSeconds: 300}))
	for _, e := range [][2]string{{"head", "z0"}, {"z0", "z1"}, {"z1", "z2"}, {"head", "z3"}, {"z3", "z4"}, {"z4", "tail"}, {"z2", "tail"}, {"z5", "tail"}} {
		must(zeros.AddEdge(e[0], e[1]))
	}
	ws = append(ws, zeros)

	fork := dag.New("fork")
	for _, tk := range []struct {
		id  string
		cpu float64
	}{{"root", 100}, {"short", 100}, {"long", 9000}, {"join", 100}, {"after", 100}} {
		must(fork.AddTask(&dag.Task{ID: tk.id, Executable: tk.id, CPUSeconds: tk.cpu}))
	}
	for _, e := range [][2]string{{"root", "short"}, {"root", "long"}, {"short", "join"}, {"long", "join"}, {"join", "after"}} {
		must(fork.AddEdge(e[0], e[1]))
	}
	ws = append(ws, fork)
	return ws
}

// packTable builds the estimate table and on-demand prices for w, expanded
// with spot columns when spot is set (spot columns share the base column's
// distributions, so same-duration different-type ties appear).
func packTable(t testing.TB, w *dag.Workflow, spot bool) (*estimate.Table, []float64) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 4000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	if spot {
		if tbl, err = tbl.ExpandSpot([]string{"m1.small", "m1.large"}); err != nil {
			t.Fatal(err)
		}
	}
	us, _ := cat.Region(cloud.USEast)
	prices := make([]float64, len(tbl.Types))
	for j, n := range tbl.Types {
		prices[j] = us.PricePerHour[cloud.BaseType(n)]
		if cloud.IsSpotName(n) {
			prices[j] *= 0.3
		}
	}
	return tbl, prices
}

// TestPackedMatchesMapOracle holds the flat packing to the map-keyed oracle
// bit for bit: the packed cost and the Place map of Consolidate, over every
// wfgen family, on-demand and spot-expanded tables, uniform configurations
// (maximal ties) and random ones.
func TestPackedMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range packFamilies(t) {
		for _, spot := range []bool{false, true} {
			tbl, prices := packTable(t, w, spot)
			var configs []State
			for j := range tbl.Types {
				uni := make(State, w.Len())
				for i := range uni {
					uni[i] = j
				}
				configs = append(configs, uni)
			}
			for r := 0; r < 20; r++ {
				cfg := make(State, w.Len())
				for i := range cfg {
					cfg[i] = rng.Intn(len(tbl.Types))
				}
				configs = append(configs, cfg)
			}
			for ci, cfg := range configs {
				wantPlan, wantCost, err := oraclePack(w, cfg, tbl, prices, cloud.USEast)
				if err != nil {
					t.Fatal(err)
				}
				cost, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast)
				if err != nil {
					t.Fatal(err)
				}
				if cost != wantCost {
					t.Errorf("%s spot=%v config %d: packed cost %v, oracle %v", w.Name, spot, ci, cost, wantCost)
				}
				plan, err := Consolidate(w, cfg, tbl, cloud.USEast)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plan.Place, wantPlan.Place) {
					t.Errorf("%s spot=%v config %d: Place map differs from the oracle", w.Name, spot, ci)
				}
			}
		}
	}
}

// stablePacking is stablePack's sort.Interface: task indices ordered by
// mean start.
type stablePacking struct {
	start   []float64
	byStart []int32
}

func (p *stablePacking) Len() int           { return len(p.byStart) }
func (p *stablePacking) Less(a, b int) bool { return p.start[p.byStart[a]] < p.start[p.byStart[b]] }
func (p *stablePacking) Swap(a, b int)      { p.byStart[a], p.byStart[b] = p.byStart[b], p.byStart[a] }

// stablePack is the flat packing as it stood before the dense mean table, kept
// as a differential reference: a string-keyed tbl.Dist lookup and a Mean per
// task, then sort.Stable over the topological order by mean start. It
// returns each task's slot and the hour-billed cost.
func stablePack(w *dag.Workflow, config State, tbl *estimate.Table, prices []float64) ([]int32, float64, error) {
	f, err := w.Flatten()
	if err != nil {
		return nil, 0, err
	}
	n := f.Len()
	dur, finish := make([]float64, n), make([]float64, n)
	p := &stablePacking{start: make([]float64, n), byStart: make([]int32, n)}
	slotOf := make([]int32, n)
	for i, id := range f.IDs {
		td, err := tbl.Dist(id, config[i])
		if err != nil {
			return nil, 0, err
		}
		dur[i] = td.Mean()
	}
	f.Makespan(dur, finish)
	for i := range p.start {
		p.start[i] = finish[i] - dur[i]
	}
	copy(p.byStart, f.Order)
	sort.Stable(p)

	const hour = 3600.0
	var slots []packedSlot
	for _, ti := range p.byStart {
		j := config[ti]
		st := p.start[ti]
		best := -1
		for si := range slots {
			if slots[si].typ != j || slots[si].end > st {
				continue
			}
			if st-slots[si].end <= hour {
				best = si
				break
			}
		}
		if best < 0 {
			slots = append(slots, packedSlot{typ: j, start: st})
			best = len(slots) - 1
		}
		slots[best].end = finish[ti]
		slotOf[ti] = int32(best)
	}
	total := 0.0
	for _, s := range slots {
		hours := (s.end - s.start) / 3600
		if hours <= 0 {
			hours = 0
		}
		billed := float64(int(hours) + 1)
		if hours == float64(int(hours)) && hours > 0 {
			billed = hours
		}
		total += billed * prices[s.typ]
	}
	return slotOf, total, nil
}

// TestPackedMatchesStableReference holds PackedMeanCost and Consolidate's
// slots to the map-lookup, sort.Stable packing bit for bit: every family of
// packFamilies (the zero-duration chains among them, whose equal mean
// starts only the topological rank orders), on-demand and spot-expanded
// tables, homogeneous and random configurations.
func TestPackedMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, w := range packFamilies(t) {
		for _, spot := range []bool{false, true} {
			tbl, prices := packTable(t, w, spot)
			var configs []State
			for j := range tbl.Types {
				uni := make(State, w.Len())
				for i := range uni {
					uni[i] = j
				}
				configs = append(configs, uni)
			}
			for r := 0; r < 20; r++ {
				cfg := make(State, w.Len())
				for i := range cfg {
					cfg[i] = rng.Intn(len(tbl.Types))
				}
				configs = append(configs, cfg)
			}
			f, err := w.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range configs {
				wantSlots, wantCost, err := stablePack(w, cfg, tbl, prices)
				if err != nil {
					t.Fatal(err)
				}
				cost, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(cost) != math.Float64bits(wantCost) {
					t.Errorf("%s spot=%v config %d: packed cost %v, reference %v", w.Name, spot, ci, cost, wantCost)
				}
				plan, err := Consolidate(w, cfg, tbl, cloud.USEast)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range f.IDs {
					if got := plan.Place[id].Slot; got != int(wantSlots[i]) {
						t.Errorf("%s spot=%v config %d: task %s on slot %d, reference %d", w.Name, spot, ci, id, got, wantSlots[i])
						break
					}
				}
			}
		}
	}
}

// TestPackedErrors checks the flat packing rejects what the map form did.
func TestPackedErrors(t *testing.T) {
	w := cpuChain(t, 3, 100)
	tbl, prices := packTable(t, w, false)
	if _, err := PackedMeanCost(w, State{0, 0}, tbl, prices, cloud.USEast); err == nil {
		t.Error("short config accepted")
	}
	if _, err := PackedMeanCost(w, State{0, 0, len(tbl.Types)}, tbl, prices, cloud.USEast); err == nil {
		t.Error("out-of-range type index accepted")
	}
	if _, err := PackedMeanCost(w, State{0, 0, 0}, tbl, prices[:1], cloud.USEast); err == nil {
		t.Error("short price vector accepted")
	}
	other := cpuChain(t, 4, 100)
	if _, err := Consolidate(other, State{0, 0, 0, 0}, tbl, cloud.USEast); err == nil {
		t.Error("table without the workflow's tasks accepted")
	}
}

// TestPackedMeanCostAllocFree asserts the per-state objective allocates
// nothing once its pooled scratch and the workflow's flat form are warm.
func TestPackedMeanCostAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	rng := rand.New(rand.NewSource(3))
	w, err := wfgen.Montage(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl, prices := packTable(t, w, false)
	cfg := make(State, w.Len())
	for i := range cfg {
		cfg[i] = rng.Intn(len(tbl.Types))
	}
	if _, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("PackedMeanCost allocates %.2f times per call, want < 1", allocs)
	}
}

// TestPackedMeanCostConcurrentFirstUse runs the objective from several
// goroutines on a workflow that has never been flattened: the lazy flat
// and topological-order caches fill under concurrent first use.
func TestPackedMeanCostConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := wfgen.CyberShake(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl, prices := packTable(t, w, false)
	fresh, err := wfgen.CyberShake(2, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(State, w.Len())
	want, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = PackedMeanCost(fresh, cfg, tbl, prices, cloud.USEast)
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != want {
			t.Errorf("worker %d: packed cost %v, want %v", g, got[g], want)
		}
	}
}

var packedSink float64

// BenchmarkPackedMeanCost measures the per-state packed objective on a
// Montage-4 workflow under a random configuration.
func BenchmarkPackedMeanCost(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	w, err := wfgen.Montage(4, rng)
	if err != nil {
		b.Fatal(err)
	}
	tbl, prices := packTable(b, w, false)
	cfg := make(State, w.Len())
	for i := range cfg {
		cfg[i] = rng.Intn(len(tbl.Types))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := PackedMeanCost(w, cfg, tbl, prices, cloud.USEast)
		if err != nil {
			b.Fatal(err)
		}
		packedSink = c
	}
}
