package opt

import (
	"math/rand"
	"testing"

	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/wfgen"
)

// orderedPair compiles the adaptive fixture space twice — fixed and ordered
// adaptive — each with its OWN fresh cache when cacheOn is set, so the
// adaptive problem's warm-cache behavior is tested rather than masked by
// fixed-path evaluations already cached under the shared binding.
func orderedPair(t *testing.T, d device.Device, cacheOn bool) (*Problem, *Problem) {
	t.Helper()
	w := cpuChain(t, 6, 400)
	ne, _ := buildEval(t, w, 1400, 0.95, 100)
	space := NewScheduleSpace(w, ne)
	base := Options{Device: d, Seed: 7, MaxStates: 2000, BeamWidth: 6, Patience: 10}
	if cacheOn {
		base.Cache = NewEvalCache(1 << 20)
	}
	fixed, err := Compile(space, base)
	if err != nil {
		t.Fatal(err)
	}
	ad := base
	ad.Adaptive = true
	if cacheOn {
		ad.Cache = NewEvalCache(1 << 20)
	}
	adaptive, err := Compile(space, ad)
	if err != nil {
		t.Fatal(err)
	}
	return fixed, adaptive
}

// TestOrderedAdaptiveMatchesFixedDevicesAndCache pins the tail-aware ordering
// contract at search level: across the test devices and with the evaluation
// cache on or off, the adaptive search over decisive-first worlds must land
// on the fixed path's objective and feasibility, must account every sampled
// world as reordered, and must make bit-identical decisions everywhere
// (identical sample stats).
func TestOrderedAdaptiveMatchesFixedDevicesAndCache(t *testing.T) {
	for _, cacheOn := range []bool{false, true} {
		var refBest float64
		var refStats SampleStats
		for i, d := range testDevices {
			fixed, adaptive := orderedPair(t, d, cacheOn)
			rf, err := fixed.Search()
			if err != nil {
				t.Fatal(err)
			}
			ra, err := adaptive.Search()
			if err != nil {
				t.Fatal(err)
			}
			if !rf.Feasible || !ra.Feasible {
				t.Fatalf("cache=%v %T: fixture should find feasible plans (fixed %v adaptive %v)",
					cacheOn, d, rf.Feasible, ra.Feasible)
			}
			if ra.BestEval.Value != rf.BestEval.Value {
				t.Fatalf("cache=%v %T: objective diverged: fixed %v (%v) adaptive %v (%v)",
					cacheOn, d, rf.BestEval.Value, rf.Best, ra.BestEval.Value, ra.Best)
			}
			st := adaptive.SampleStats()
			if st.WorldsReordered <= 0 {
				t.Fatalf("cache=%v %T: no worlds sampled under the permutation: %+v", cacheOn, d, st)
			}
			if st.WorldsReordered != st.WorldsRun {
				t.Fatalf("cache=%v %T: ordered path must account every sampled world: %+v", cacheOn, d, st)
			}
			if i == 0 {
				refBest, refStats = ra.BestEval.Value, st
				continue
			}
			if ra.BestEval.Value != refBest {
				t.Fatalf("cache=%v %T: best %v != sequential %v", cacheOn, d, ra.BestEval.Value, refBest)
			}
			if st != refStats {
				t.Fatalf("cache=%v %T: stats %+v != sequential %+v", cacheOn, d, st, refStats)
			}
		}
	}
}

// groupSpace builds a scheduling space over a generated topology with
// executable-level move groups — the realistic frontier where sibling
// children dirty whole task groups.
func groupSpace(t *testing.T, w *dag.Workflow) *ScheduleSpace {
	t.Helper()
	ne, _ := buildEval(t, w, 9000, 0.9, 30)
	space := NewScheduleSpace(w, ne)
	space.Groups = GroupByExecutable(w)
	return space
}

// TestGroupConeDeltaMatchesFullTopologies is the group-cone bit-exactness
// contract on realistic topologies: with GroupByExecutable moves on Montage
// and CyberShake, two frontier generations of delta evaluation must score
// parent and every child bit-identically to the delta-disabled problem, while
// actually routing children through shared cone plans.
func TestGroupConeDeltaMatchesFullTopologies(t *testing.T) {
	montage, err := wfgen.Montage(2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cyber, err := wfgen.CyberShake(3, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *dag.Workflow
	}{{"montage", montage}, {"cybershake", cyber}} {
		t.Run(tc.name, func(t *testing.T) {
			space := groupSpace(t, tc.w)
			on, err := Compile(space, Options{Device: device.Sequential{}, Seed: 11, SnapshotBudget: 0})
			if err != nil {
				t.Fatal(err)
			}
			off, err := Compile(space, Options{Device: device.Sequential{}, Seed: 11, SnapshotBudget: -1})
			if err != nil {
				t.Fatal(err)
			}
			if on.delta == nil || on.planCache == nil {
				t.Fatal("group space did not compile onto the planned-delta path")
			}

			// Two generations: the start expansion, then the expansion of one
			// child (which has promote AND demote moves on the changed group, so
			// siblings share the plan-cache entry for the same dirty set).
			parent := on.Starts()[0]
			for gen := 0; gen < 2; gen++ {
				pe, children, evs, err := on.EvaluateExpansion(parent)
				if err != nil {
					t.Fatal(err)
				}
				peOff, childrenOff, evsOff, err := off.EvaluateExpansion(parent)
				if err != nil {
					t.Fatal(err)
				}
				if pe.Value != peOff.Value || pe.Feasible != peOff.Feasible || pe.Violation != peOff.Violation {
					t.Fatalf("gen %d parent eval differs: delta %+v full %+v", gen, pe, peOff)
				}
				if len(children) != len(childrenOff) || len(children) == 0 {
					t.Fatalf("gen %d child counts differ: %d vs %d", gen, len(children), len(childrenOff))
				}
				for i := range children {
					if children[i].Key() != childrenOff[i].Key() {
						t.Fatalf("gen %d child %d differs: %v vs %v", gen, i, children[i], childrenOff[i])
					}
					if evs[i].Value != evsOff[i].Value || evs[i].Feasible != evsOff[i].Feasible ||
						evs[i].Violation != evsOff[i].Violation {
						t.Fatalf("gen %d child %d eval differs: delta %+v full %+v", gen, i, evs[i], evsOff[i])
					}
				}
				parent = children[0]
			}

			st := on.DeltaStats()
			if st.DeltaEvals == 0 {
				t.Fatalf("no child took the group-cone delta path: %+v", st)
			}
			if st.ConePlans == 0 {
				t.Fatalf("no cone plans extracted: %+v", st)
			}
			if st.ConePlanHits == 0 {
				t.Fatalf("no sibling shared a cone plan: %+v", st)
			}
			if off.DeltaStats() != (DeltaStats{}) {
				t.Fatalf("delta-disabled problem recorded stats: %+v", off.DeltaStats())
			}
		})
	}
}

// TestGroupConeFallbackBoundary pins the work-estimate gate: when every task
// shares one executable the single move group dirties the whole DAG, the cone
// IS the workflow, and the planned path must decline delta for every child —
// falling back to full evaluation with identical results rather than paying
// cone bookkeeping for zero reuse.
func TestGroupConeFallbackBoundary(t *testing.T) {
	w := dag.New("monolith")
	prev := ""
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		if err := w.AddTask(&dag.Task{ID: id, Executable: "only", CPUSeconds: 300}); err != nil {
			t.Fatal(err)
		}
		if prev != "" {
			if err := w.AddEdge(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	ne, _ := buildEval(t, w, 2500, 0.9, 20)
	space := NewScheduleSpace(w, ne)
	space.Groups = GroupByExecutable(w)
	if len(space.Groups) != 1 || len(space.Groups[0]) != w.Len() {
		t.Fatalf("monolith should form one whole-DAG group, got %v", space.Groups)
	}
	on, err := Compile(space, Options{Device: device.Sequential{}, Seed: 11, SnapshotBudget: 0})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Compile(space, Options{Device: device.Sequential{}, Seed: 11, SnapshotBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, children, evs, err := on.EvaluateExpansion(on.Starts()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, _, evsOff, err := off.EvaluateExpansion(off.Starts()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if evs[i].Value != evsOff[i].Value || evs[i].Feasible != evsOff[i].Feasible {
			t.Fatalf("child %d: fallback eval %+v != full %+v", i, evs[i], evsOff[i])
		}
	}
	st := on.DeltaStats()
	if st.DeltaEvals != 0 {
		t.Fatalf("whole-DAG cone must never evaluate incrementally: %+v", st)
	}
	if st.Fallbacks != int64(len(children)) {
		t.Fatalf("every child should fall back (%d children): %+v", len(children), st)
	}
	if st.ConePlanHits == 0 {
		t.Fatalf("siblings should still share the (declined) plan: %+v", st)
	}
}

// TestGroupConeDeltaTwoLevelConcurrent runs the group-cone frontier on the
// two-level device: cone plans built in the search goroutine are read by
// concurrent sampling workers, and the results must match the sequential
// device bit-for-bit. Run with -race for the sharing smoke.
func TestGroupConeDeltaTwoLevelConcurrent(t *testing.T) {
	montage, err := wfgen.Montage(2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var ref []*probir.Evaluation
	for di, d := range []device.Device{device.Sequential{}, device.TwoLevel{NumWorkers: 4}} {
		space := groupSpace(t, montage)
		p, err := Compile(space, Options{Device: d, Seed: 11, SnapshotBudget: 0})
		if err != nil {
			t.Fatal(err)
		}
		parent := p.Starts()[0]
		var all []*probir.Evaluation
		for gen := 0; gen < 2; gen++ {
			pe, children, evs, err := p.EvaluateExpansion(parent)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, pe)
			all = append(all, evs...)
			parent = children[0]
		}
		if st := p.DeltaStats(); st.DeltaEvals == 0 || st.ConePlanHits == 0 {
			t.Fatalf("device %T: group-cone path inactive: %+v", d, st)
		}
		if di == 0 {
			ref = all
			continue
		}
		if len(all) != len(ref) {
			t.Fatalf("device %T: %d evals vs %d sequential", d, len(all), len(ref))
		}
		for i := range all {
			if all[i].Value != ref[i].Value || all[i].Feasible != ref[i].Feasible {
				t.Fatalf("device %T eval %d: %+v != sequential %+v", d, i, all[i], ref[i])
			}
		}
	}
}

// TestCompleteParentRegeneratesSnapshot pins the adaptive × delta compounding
// fix: a parent whose own evaluation stopped early never captured a snapshot,
// so the first child expansion re-evaluates it in full once — after which the
// sibling batch evaluates incrementally. Without completeParent the adaptive
// path would starve delta of every early-stopped parent.
func TestCompleteParentRegeneratesSnapshot(t *testing.T) {
	w := cpuChain(t, 6, 400)
	ne, _ := buildEval(t, w, 1400, 0.95, 100)
	space := NewScheduleSpace(w, ne)
	p, err := Compile(space, Options{Device: device.Sequential{}, Seed: 7, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.adaptive || p.delta == nil {
		t.Fatalf("fixture must compile adaptive+delta (adaptive=%v delta=%v)", p.adaptive, p.delta != nil)
	}

	// The all-cheapest start is sharply infeasible: with its worlds numbered
	// decisive-first its verdict settles in the first chunks, so no snapshot
	// exists.
	parent := p.Starts()[0]
	out := p.evaluateCandidates([]candidate{{state: parent, key: parent.Key()}})
	if out[0].err != nil {
		t.Fatal(out[0].err)
	}
	if out[0].worlds == 0 || out[0].worlds >= p.worlds {
		t.Fatalf("fixture start did not early-stop (%d/%d worlds); completeParent is not exercised",
			out[0].worlds, p.worlds)
	}
	if _, ok := p.snaps.get(parent.Key()); ok {
		t.Fatal("early-stopped parent must not have a stored snapshot")
	}

	_, _, _, err = p.EvaluateExpansion(parent)
	if err != nil {
		t.Fatal(err)
	}
	st := p.DeltaStats()
	if st.ParentCompletions == 0 {
		t.Fatalf("missing-snapshot expansion did not complete the parent: %+v", st)
	}
	if _, ok := p.snaps.get(parent.Key()); !ok {
		t.Fatal("completeParent did not store the regenerated snapshot")
	}
	if st.DeltaEvals == 0 {
		t.Fatalf("children did not evaluate incrementally after parent completion: %+v", st)
	}
}

// TestPinnedFeasibleCompletesSnapshot pins the other half of the compounding
// fix: a state whose feasible verdict is certain mid-run but that holds a
// capture snapshot is pinned to completion instead of stopping — its full
// evaluation (and snapshot) is exactly what its future children need.
func TestPinnedFeasibleCompletesSnapshot(t *testing.T) {
	w := cpuChain(t, 6, 400)
	ne, _ := buildEval(t, w, 1400, 0.95, 100)
	space := NewScheduleSpace(w, ne)
	p, err := Compile(space, Options{Device: device.Sequential{}, Seed: 7, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Compile(space, Options{Device: device.Sequential{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// Uniform promotions: at least one is feasible well inside the deadline,
	// which the tail checkpoints decide long before the world cap.
	var cands []candidate
	var states []State
	for j := 0; j < 4; j++ {
		st := State{j, j, j, j, j, j}
		states = append(states, st)
		cands = append(cands, candidate{state: st, key: st.Key()})
	}
	ref, err := fixed.EvaluateStates(states)
	if err != nil {
		t.Fatal(err)
	}
	out := p.evaluateCandidates(cands)
	feasibleComplete := 0
	for i, s := range out {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if !ref[i].Feasible {
			continue
		}
		// A feasible state under delta holds a capture snapshot, so it must
		// have been pinned to a complete, bit-identical evaluation with its
		// snapshot stored.
		if s.worlds != p.worlds {
			t.Fatalf("feasible state %v stopped at %d/%d worlds despite pinning", states[i], s.worlds, p.worlds)
		}
		if s.eval.Value != ref[i].Value || !s.eval.Feasible {
			t.Fatalf("pinned state %v eval %+v != fixed %+v", states[i], s.eval, ref[i])
		}
		if _, ok := p.snaps.get(cands[i].key); !ok {
			t.Fatalf("pinned state %v completed without storing its snapshot", states[i])
		}
		feasibleComplete++
	}
	if feasibleComplete == 0 {
		t.Fatal("fixture has no feasible uniform promotion; pinning is not exercised")
	}
	if st := p.SampleStats(); st.FullRuns == 0 {
		t.Fatalf("pinning produced no full runs: %+v", st)
	}
}
