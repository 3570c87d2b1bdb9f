package opt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deco/internal/device"
	"deco/internal/probir"
)

// mapOnlySpace has no per-world decomposition at all: its evaluation is a
// world-free kernel. Used to pin the Worlds-assertion error.
type mapOnlySpace struct{}

func (mapOnlySpace) Starts() []State               { return []State{{0}} }
func (mapOnlySpace) Neighbors(s State) []Transform { return nil }
func (mapOnlySpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(State) (probir.WorldKernel, error) {
		return evalKernel(func() (*probir.Evaluation, error) {
			return &probir.Evaluation{Value: 1, Feasible: true}, nil
		}), nil
	}}
}

// TestCompileAdaptiveOptionValidation pins the Compile-time validation of the
// adaptive-sampling knobs: bad values fail with errors naming the option, and
// a Worlds assertion is checked against the compiled kernel.
func TestCompileAdaptiveOptionValidation(t *testing.T) {
	w := cpuChain(t, 4, 300)
	ne, _ := buildEval(t, w, 1300, 0.9, 20)
	space := NewScheduleSpace(w, ne)

	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative worlds", Options{Device: device.Sequential{}, Worlds: -1}, "Options.Worlds"},
		{"negative min worlds", Options{Device: device.Sequential{}, MinWorlds: -5}, "Options.MinWorlds"},
		{"low confidence", Options{Device: device.Sequential{}, Confidence: 0.3}, "Options.Confidence"},
		{"negative confidence", Options{Device: device.Sequential{}, Confidence: -0.1}, "Options.Confidence"},
		{"unit confidence", Options{Device: device.Sequential{}, Confidence: 1.0}, "Options.Confidence"},
		{"worlds mismatch", Options{Device: device.Sequential{}, Worlds: 21}, "samples 20 worlds"},
	}
	for _, tc := range cases {
		if _, err := Compile(space, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Valid settings compile; a correct Worlds assertion passes.
	p, err := Compile(space, Options{Device: device.Sequential{}, Worlds: 20, MinWorlds: 8, Confidence: 0.99})
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if p.Adaptive() {
		t.Fatal("Adaptive off must compile the fixed path")
	}
	// Asserting Worlds against a space with no kernel decomposition fails.
	if _, err := Compile(mapOnlySpace{}, Options{Device: device.Sequential{}, Worlds: 5}); err == nil ||
		!strings.Contains(err.Error(), "no per-world kernel decomposition") {
		t.Errorf("kernel-less Worlds assertion: error = %v", err)
	}
}

// adaptiveFixture compiles the same scheduling space twice — fixed and
// adaptive — sharing one evaluator so both see identical CRN realizations.
// The deadline is tight enough that demoted configurations are sharply
// infeasible, which is what adaptive stopping exploits.
func adaptiveFixture(t *testing.T, d device.Device, cache *EvalCache) (*Problem, *Problem) {
	t.Helper()
	w := cpuChain(t, 6, 400)
	ne, _ := buildEval(t, w, 1400, 0.95, 100)
	space := NewScheduleSpace(w, ne)
	base := Options{Device: d, Seed: 7, MaxStates: 2000, BeamWidth: 6, Patience: 10, Cache: cache}
	fixed, err := Compile(space, base)
	if err != nil {
		t.Fatal(err)
	}
	ad := base
	ad.Adaptive = true
	adaptive, err := Compile(space, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Adaptive() {
		t.Fatal("adaptive problem did not compile onto the adaptive path")
	}
	if fixed.Adaptive() {
		t.Fatal("fixed problem compiled adaptive")
	}
	return fixed, adaptive
}

// TestAdaptiveSearchMatchesFixed is the plan-quality contract: the adaptive
// search must land on a plan with the same objective value and feasibility as
// the fixed search, while actually saving worlds.
func TestAdaptiveSearchMatchesFixed(t *testing.T) {
	for _, astar := range []bool{false, true} {
		fixed, adaptive := adaptiveFixture(t, device.Sequential{}, nil)
		fixed.opts.AStar, adaptive.opts.AStar = astar, astar
		rf, err := fixed.Search()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := adaptive.Search()
		if err != nil {
			t.Fatal(err)
		}
		if !rf.Feasible || !ra.Feasible {
			t.Fatalf("astar=%v: fixture should find feasible plans (fixed %v adaptive %v)", astar, rf.Feasible, ra.Feasible)
		}
		if rf.BestEval.Value != ra.BestEval.Value {
			t.Fatalf("astar=%v: objective diverged: fixed %v (%v) adaptive %v (%v)",
				astar, rf.BestEval.Value, rf.Best, ra.BestEval.Value, ra.Best)
		}
		// The returned best is backed by a complete evaluation: identical
		// constraint probabilities to a fixed evaluation of the same state.
		full, err := fixed.EvaluateStates([]State{ra.Best})
		if err != nil {
			t.Fatal(err)
		}
		if full[0].Value != ra.BestEval.Value || full[0].Feasible != ra.BestEval.Feasible ||
			full[0].ConsProb[0] != ra.BestEval.ConsProb[0] {
			t.Fatalf("astar=%v: returned best not backed by a full evaluation: %+v vs %+v", astar, ra.BestEval, full[0])
		}
		st := adaptive.SampleStats()
		if !st.Adaptive || st.StatesAdaptive == 0 {
			t.Fatalf("astar=%v: adaptive path never ran: %+v", astar, st)
		}
		if st.WorldsSaved() <= 0 {
			t.Fatalf("astar=%v: adaptive saved no worlds: %+v", astar, st)
		}
		if fs := fixed.SampleStats(); fs.StatesAdaptive != 0 || fs.Adaptive {
			t.Fatalf("astar=%v: fixed problem recorded adaptive stats: %+v", astar, fs)
		}
	}
}

// TestAdaptiveDeviceInvariance pins determinism of the adaptive path across
// devices: stopping and racing decisions are functions of the running sums,
// which chunked folding keeps bit-identical everywhere.
func TestAdaptiveDeviceInvariance(t *testing.T) {
	var refBest float64
	var refStats SampleStats
	for i, d := range testDevices {
		_, adaptive := adaptiveFixture(t, d, nil)
		ra, err := adaptive.Search()
		if err != nil {
			t.Fatal(err)
		}
		st := adaptive.SampleStats()
		if i == 0 {
			refBest, refStats = ra.BestEval.Value, st
			continue
		}
		if ra.BestEval.Value != refBest {
			t.Fatalf("device %T: best %v != sequential %v", d, ra.BestEval.Value, refBest)
		}
		if st != refStats {
			t.Fatalf("device %T: stats %+v != sequential %+v", d, st, refStats)
		}
	}
}

// TestAdaptivePartialNotCached pins the cache-completeness gate: states the
// adaptive evaluator stopped early must not enter the evaluation cache, while
// fully evaluated states must.
func TestAdaptivePartialNotCached(t *testing.T) {
	cache := NewEvalCache(1 << 20)
	_, adaptive := adaptiveFixture(t, device.Sequential{}, cache)
	// A frontier-like batch: the all-cheapest state and its global promotions.
	// The slow configurations are sharply infeasible and stop early.
	var cands []candidate
	for j := 0; j < 4; j++ {
		st := State{j, j, j, j, j, j}
		cands = append(cands, candidate{state: st, key: st.Key()})
	}
	out := adaptive.evaluateCandidates(cands)
	var partial, complete int
	for _, s := range out {
		if s.err != nil {
			t.Fatal(s.err)
		}
		_, hit := adaptive.cache.Get(s.key)
		if s.worlds > 0 && s.worlds < adaptive.worlds {
			partial++
			if hit {
				t.Fatalf("partial evaluation (%d/%d worlds) of %v entered the cache", s.worlds, adaptive.worlds, s.state)
			}
		} else {
			complete++
			if !hit {
				t.Fatalf("complete evaluation of %v missing from the cache", s.state)
			}
		}
	}
	if partial == 0 || complete == 0 {
		t.Fatalf("fixture needs both partial (%d) and complete (%d) evaluations to pin the gate", partial, complete)
	}
}

// TestAdaptiveConcurrentSearches is the race smoke for the chunked evaluator:
// several adaptive searches over one shared evaluator and cache run
// concurrently on the two-level device, and all must agree. Run with -race.
func TestAdaptiveConcurrentSearches(t *testing.T) {
	cache := NewEvalCache(1 << 20)
	w := cpuChain(t, 6, 400)
	ne, _ := buildEval(t, w, 1400, 0.95, 100)
	space := NewScheduleSpace(w, ne)

	const n = 4
	results := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := Compile(space, Options{
				Device: device.TwoLevel{NumWorkers: 4},
				Seed:   7, MaxStates: 2000, BeamWidth: 6, Patience: 10,
				Adaptive: true, Cache: cache,
			})
			if err != nil {
				errs[g] = err
				return
			}
			r, err := p.Search()
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = r.BestEval.Value
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("concurrent search %d: best %v != %v", g, results[g], results[0])
		}
	}
}

// failingReduceKernel is a one-indicator partial kernel whose every world
// satisfies its constraint and whose reductions all fail; samples counts
// the worlds actually sampled.
type failingReduceKernel struct{ samples *atomic.Int64 }

var errFakeReduce = errors.New("fake reduction failure")

func (k failingReduceKernel) Worlds() int { return 64 }
func (k failingReduceKernel) Width() int  { return 1 }
func (k failingReduceKernel) Sample(lo, hi int, out []float64) error {
	k.samples.Add(int64(hi - lo))
	for r := range hi - lo {
		out[r] = 1
	}
	return nil
}
func (k failingReduceKernel) Reduce([]float64) (*probir.Evaluation, error) { return nil, errFakeReduce }
func (k failingReduceKernel) Indicators() ([]int, []float64, bool) {
	return []int{0}, []float64{0.5}, true
}
func (k failingReduceKernel) ValueFigure() int { return -1 }
func (k failingReduceKernel) ReducePartial([]float64, int) (*probir.Evaluation, error) {
	return nil, errFakeReduce
}

// failingReduceSpace evaluates every state with a failingReduceKernel.
type failingReduceSpace struct{ samples atomic.Int64 }

func (s *failingReduceSpace) Starts() []State             { return []State{{0}} }
func (s *failingReduceSpace) Neighbors(State) []Transform { return nil }
func (s *failingReduceSpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(State) (probir.WorldKernel, error) {
		return failingReduceKernel{&s.samples}, nil
	}}
}

// TestAdaptiveReduceErrorCountsWorldsOnce pins the world accounting of
// failed reductions: whether a state's final reduction, its prefix
// finalization or racing's optimistic reduction fails, its spend counts once
// — WorldsRun equals the worlds actually sampled and stays within budget.
func TestAdaptiveReduceErrorCountsWorldsOnce(t *testing.T) {
	for _, minWorlds := range []int{16, 63} {
		sp := &failingReduceSpace{}
		p, err := Compile(sp, Options{Device: device.TwoLevel{NumWorkers: 3}, Seed: 5, Adaptive: true, MinWorlds: minWorlds})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Adaptive() {
			t.Fatal("space did not compile adaptive")
		}
		var cands []candidate
		for i := 0; i < 5; i++ {
			cands = append(cands, candidate{state: State{i}, key: State{i}.Key()})
		}
		for i, s := range p.evaluateCandidates(cands) {
			if !errors.Is(s.err, errFakeReduce) {
				t.Fatalf("min %d state %d: want the reduction error, got eval %+v err %v", minWorlds, i, s.eval, s.err)
			}
		}
		st := p.SampleStats()
		if st.WorldsRun != sp.samples.Load() || st.WorldsRun > st.WorldsBudget {
			t.Fatalf("min %d: WorldsRun %d, sampled %d, budget %d", minWorlds, st.WorldsRun, sp.samples.Load(), st.WorldsBudget)
		}
	}
}
