package opt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// TestCompileAdaptiveOptionValidation pins the Compile-time validation of the
// adaptive-sampling knobs: a bad value fails with an error naming the option,
// and valid settings compile.
func TestCompileAdaptiveOptionValidation(t *testing.T) {
	w := cpuChain(t, 4, 300)
	ne, _ := buildEval(t, w, 1300, 0.9, 20)
	space := NewScheduleSpace(w, ne)

	if _, err := Compile(space, Options{Device: device.Sequential{}, MinWorlds: -5}); err == nil ||
		!strings.Contains(err.Error(), "Options.MinWorlds") {
		t.Errorf("negative min worlds: Compile error = %v, want mention of %q", err, "Options.MinWorlds")
	}
	p, err := Compile(space, Options{Device: device.Sequential{}, MinWorlds: 8})
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if p.SampleStats().Adaptive {
		t.Fatal("Adaptive off must compile the fixed path")
	}
	for _, d := range []Descriptor{
		{Indicators: []int{5}, Targets: []float64{0.9}},
		{Indicators: []int{0}},
	} {
		if _, err := Compile(declaredSpace{space, d}, Options{Device: device.Sequential{}}); err == nil ||
			!strings.Contains(err.Error(), "indicator") {
			t.Errorf("indicators %v, targets %v: Compile error = %v, want an indicator error", d.Indicators, d.Targets, err)
		}
	}
}

// declaredSpace is a scheduling space that declares the indicators of d.
type declaredSpace struct {
	*ScheduleSpace
	d Descriptor
}

func (s declaredSpace) Describe(ctx context.Context, seed int64) Descriptor {
	d := s.ScheduleSpace.Describe(ctx, seed)
	d.Indicators, d.Targets = s.d.Indicators, s.d.Targets
	return d
}

// TestCompileAdaptiveFollowsIndicators pins that adaptive precision engages
// on the evaluator's indicator declaration: a Native evaluator with a
// percentile deadline compiles adaptive; a Prolog evaluator declares no
// indicators, so its space compiled with Adaptive on runs the fixed path.
func TestCompileAdaptiveFollowsIndicators(t *testing.T) {
	w := cpuChain(t, 4, 300)
	ne, tbl := buildEval(t, w, 1300, 0.9, 20)
	prog, err := wlog.Parse("minimize Ct in totalcost(Ct).\nT in maxtime(Path,T) satisfies deadline(90%,1h).\n")
	if err != nil {
		t.Fatal(err)
	}
	pe, err := probir.NewProlog(w, tbl, ne.PricePerHour, prog, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		eval probir.Evaluator
		want bool
	}{{"native", ne, true}, {"prolog", pe, false}} {
		p, err := Compile(NewScheduleSpace(w, c.eval), Options{Device: device.Sequential{}, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.SampleStats().Adaptive; got != c.want {
			t.Errorf("%s: SampleStats().Adaptive = %v, want %v", c.name, got, c.want)
		}
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
	if !adaptive.SampleStats().Adaptive {
		t.Fatal("adaptive problem did not compile onto the adaptive path")
	}
	if fixed.SampleStats().Adaptive {
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
// devices: stopping decisions are functions of the running sums,
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
func (k failingReduceKernel) Reduce([]float64, int) (*probir.Evaluation, error) {
	return nil, errFakeReduce
}

// failingReduceSpace evaluates every state with a failingReduceKernel.
type failingReduceSpace struct{ samples atomic.Int64 }

func (s *failingReduceSpace) Starts() []State             { return []State{{0}} }
func (s *failingReduceSpace) Neighbors(State) []Transform { return nil }
func (s *failingReduceSpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(State) (probir.WorldKernel, error) {
		return failingReduceKernel{&s.samples}, nil
	}, Indicators: []int{0}, Targets: []float64{0.5}}
}

// TestAdaptiveReduceErrorCountsWorldsOnce pins the world accounting of
// failed reductions: whether a state's final reduction or its prefix
// finalization fails, its spend counts once
// — WorldsRun equals the worlds actually sampled and stays within budget.
func TestAdaptiveReduceErrorCountsWorldsOnce(t *testing.T) {
	for _, minWorlds := range []int{16, 63} {
		sp := &failingReduceSpace{}
		p, err := Compile(sp, Options{Device: device.TwoLevel{NumWorkers: 3}, Seed: 5, Adaptive: true, MinWorlds: minWorlds})
		if err != nil {
			t.Fatal(err)
		}
		if !p.SampleStats().Adaptive {
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

// objectiveKernel is a kernel of worlds worlds whose every world satisfies
// its one indicator; Sample fails from world failAt on (never when
// failAt < 0).
type objectiveKernel struct{ worlds, failAt int }

var errFakeSample = errors.New("fake sample failure")

func (k objectiveKernel) Worlds() int { return k.worlds }
func (k objectiveKernel) Width() int  { return 1 }
func (k objectiveKernel) Sample(lo, hi int, out []float64) error {
	if k.failAt >= 0 && hi > k.failAt {
		return errFakeSample
	}
	for r := range hi - lo {
		out[r] = 1
	}
	return nil
}
func (k objectiveKernel) Reduce([]float64, int) (*probir.Evaluation, error) {
	return &probir.Evaluation{Value: -1, Feasible: true}, nil
}

// objectiveSpace evaluates state {i} with an objectiveKernel whose Sample
// fails for i == 4, under an objective that counts its calls per state,
// returns 10·i and fails for i >= 3.
type objectiveSpace struct {
	worlds int
	calls  [5]atomic.Int64
}

var errFakeObjective = errors.New("fake objective failure")

func (s *objectiveSpace) Starts() []State             { return []State{{0}} }
func (s *objectiveSpace) Neighbors(State) []Transform { return nil }
func (s *objectiveSpace) Describe(context.Context, int64) Descriptor {
	d := Descriptor{
		Kernel: func(st State) (probir.WorldKernel, error) {
			k := objectiveKernel{worlds: s.worlds, failAt: -1}
			if st[0] == 4 {
				k.failAt = s.worlds / 2
			}
			return k, nil
		},
		Objective: func(st State) (float64, error) {
			s.calls[st[0]].Add(1)
			if st[0] >= 3 {
				return 0, errFakeObjective
			}
			return 10 * float64(st[0]), nil
		},
	}
	if s.worlds > 0 {
		d.Indicators, d.Targets = []int{0}, []float64{0.5}
	}
	return d
}

// TestObjectiveOncePerState pins where the objective runs: once per state,
// whether the state's worlds run in one round or in adaptive chunks split
// across workers, and at reduction for a program without worlds. Its value
// replaces the reduced goal value; its error fails the state, unless the
// state's kernel failed first.
func TestObjectiveOncePerState(t *testing.T) {
	for _, c := range []struct {
		worlds   int
		adaptive bool
		d        device.Device
	}{
		{64, false, device.Sequential{}},
		{64, true, device.Sequential{}},
		{64, false, device.TwoLevel{NumWorkers: 4}},
		{200, true, device.TwoLevel{NumWorkers: 4}},
		{0, false, device.TwoLevel{NumWorkers: 4}},
	} {
		sp := &objectiveSpace{worlds: c.worlds}
		p, err := Compile(sp, Options{Device: c.d, Seed: 3, Adaptive: c.adaptive, MinWorlds: 16})
		if err != nil {
			t.Fatal(err)
		}
		var cands []candidate
		for i := range 5 {
			cands = append(cands, candidate{state: State{i}, key: State{i}.Key()})
		}
		what := func(i int) string {
			return fmt.Sprintf("%d worlds, adaptive %v, %s, state %d", c.worlds, c.adaptive, c.d.Name(), i)
		}
		for i, s := range p.evaluateCandidates(cands) {
			switch {
			case i == 4 && c.worlds > 0:
				if !errors.Is(s.err, errFakeSample) {
					t.Errorf("%s: err %v, want the sample error", what(i), s.err)
				}
			case i >= 3:
				if !errors.Is(s.err, errFakeObjective) {
					t.Errorf("%s: err %v, want the objective error", what(i), s.err)
				}
			case s.err != nil || s.eval.Value != 10*float64(i):
				t.Errorf("%s: eval %+v err %v, want value %v", what(i), s.eval, s.err, 10*float64(i))
			}
			if n := sp.calls[i].Load(); n > 1 || (n == 0 && i != 4) {
				t.Errorf("%s: objective ran %d times", what(i), n)
			}
		}
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		min, total int
		want       []int
	}{
		{16, 100, []int{16, 48, 100}},
		{16, 16, []int{16}},
		{16, 10, []int{10}},
		{1, 7, []int{1, 3, 7}},
		{4, 64, []int{4, 12, 28, 60, 64}},
		{16, 0, nil},
		{0, 5, []int{1, 3, 5}},
	}
	for _, c := range cases {
		if got := chunks(c.min, c.total); !slices.Equal(got, c.want) {
			t.Fatalf("chunks(%d, %d) = %v, want %v", c.min, c.total, got, c.want)
		}
	}
	// The last chunk must always land exactly on total.
	for min := 1; min < 40; min++ {
		for total := 1; total < 200; total += 7 {
			ends := chunks(min, total)
			if ends[len(ends)-1] != total {
				t.Fatalf("chunks(%d, %d) ends at %d", min, total, ends[len(ends)-1])
			}
			prev := 0
			for _, e := range ends {
				if e <= prev {
					t.Fatalf("chunks(%d, %d): non-increasing end %d after %d", min, total, e, prev)
				}
				prev = e
			}
		}
	}
}

// TestBernoulliExactNeverWrong drives random indicator sequences through the
// stopping rule at the chunk ends and asserts that an early infeasible stop
// always matches the verdict of the full sequence, and that at the last
// world the rule is the exact verdict itself.
func TestBernoulliExactNeverWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const total = 100
	for trial := 0; trial < 2000; trial++ {
		p := rng.Float64()
		target := 0.5 + rng.Float64()/2
		outcomes := make([]float64, total)
		full := 0.0
		for i := range outcomes {
			if rng.Float64() < p {
				outcomes[i] = 1
				full++
			}
		}
		finalFeasible := full/float64(total) >= target
		succ, seen := 0.0, 0
		for _, end := range chunks(8, total) {
			for ; seen < end; seen++ {
				succ += outcomes[seen]
			}
			stop := maxProb(succ, seen, total) < target
			if seen == total && stop == finalFeasible {
				t.Fatalf("trial %d: verdict at t=N infeasible=%v, full sequence feasible=%v", trial, stop, finalFeasible)
			}
			if stop && finalFeasible {
				t.Fatalf("trial %d: stopped infeasible at t=%d, but the full sequence is feasible", trial, seen)
			}
			if stop {
				break
			}
		}
	}
}

// TestBernoulliDecidesInfeasibleEarly checks the savings claim: a clearly
// infeasible state at pct=0.96 is decided after a handful of worlds.
func TestBernoulliDecidesInfeasibleEarly(t *testing.T) {
	const total = 100
	succ, decidedAt := 0.0, 0
	// Alternate success/failure: p ~ 0.5, far below 0.96.
	for it := 0; it < total; it++ {
		if it%2 == 0 {
			succ++
		}
		if maxProb(succ, it+1, total) < 0.96 {
			decidedAt = it + 1
			break
		}
	}
	if decidedAt == 0 || decidedAt > 12 {
		t.Fatalf("clearly infeasible state decided at t=%d, want <= 12", decidedAt)
	}
}
