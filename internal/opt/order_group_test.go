package opt

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"deco/internal/cloud"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
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

// worldLog records, for every kernel a search builds, the worlds it sampled
// and its last reduction: the evaluation the batch evaluator finalized.
type worldLog struct {
	mu    sync.Mutex
	evals []*loggedEval
}

// loggedEval is one kernel's record: the state it evaluates, worlds one
// past the highest world sampled, seen the worlds behind the last
// reduction, ev its result.
type loggedEval struct {
	state        State
	worlds, seen int
	ev           *probir.Evaluation
}

// loggedKernel forwards to a world kernel and logs into rec.
type loggedKernel struct {
	probir.WorldKernel
	log *worldLog
	rec *loggedEval
}

func (k loggedKernel) Sample(lo, hi int, out []float64) error {
	k.log.mu.Lock()
	k.rec.worlds = max(k.rec.worlds, hi)
	k.log.mu.Unlock()
	return k.WorldKernel.Sample(lo, hi, out)
}

func (k loggedKernel) Reduce(sums []float64, seen int) (*probir.Evaluation, error) {
	ev, err := k.WorldKernel.Reduce(sums, seen)
	k.log.mu.Lock()
	k.rec.seen, k.rec.ev = seen, ev
	k.log.mu.Unlock()
	return ev, err
}

// loggedSpace is a scheduling space whose kernels log into log.
type loggedSpace struct {
	*ScheduleSpace
	log *worldLog
}

func (s loggedSpace) Describe(ctx context.Context, seed int64) Descriptor {
	d := s.ScheduleSpace.Describe(ctx, seed)
	kernel := d.Kernel
	d.Kernel = func(st State) (probir.WorldKernel, error) {
		k, err := kernel(st)
		if err != nil {
			return nil, err
		}
		rec := &loggedEval{state: st.Clone()}
		s.log.mu.Lock()
		s.log.evals = append(s.log.evals, rec)
		s.log.mu.Unlock()
		return loggedKernel{k, s.log, rec}, nil
	}
	d.Fingerprint = ""
	return d
}

// TestPinnedFeasibleRunsToCap pins adaptive precision's stop rule: only
// states proven infeasible stop early; every other state runs on to the
// world cap. So in an adaptive search no evaluation reported Feasible was
// finalized from a world prefix, and WorldsRun counts a full cap for every
// feasible state. It runs on a deadline space and on a cost goal under a
// percentile budget with no deadline.
func TestPinnedFeasibleRunsToCap(t *testing.T) {
	const worlds = 100
	w, _ := trajectoryWorkflows(t)
	deadlineEval, _ := buildEval(t, w, 1500, 0.9, worlds)
	// Montage-1's all-cheapest plan costs ~0.056 USD and its uniform plans
	// ~0.066 on the second type and ~0.084 on the third: at the 90th
	// percentile the budget admits the first and stops states early.
	budgetEval, err := probir.NewNative(w, deadlineEval.Table, deadlineEval.PricePerHour, probir.GoalCost,
		[]wlog.Constraint{{Kind: "budget", Percentile: 0.9, Bound: 0.065}}, worlds)
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]*probir.Native{"deadline": deadlineEval, "budget": budgetEval} {
		t.Run(name, func(t *testing.T) {
			log := &worldLog{}
			p, err := Compile(loggedSpace{NewScheduleSpace(w, ev), log},
				Options{Device: device.Sequential{}, Seed: 7, MaxStates: 300, Adaptive: true})
			if err != nil {
				t.Fatal(err)
			}
			if !p.SampleStats().Adaptive {
				t.Fatal("fixture did not compile adaptive")
			}
			res, err := p.Search()
			if err != nil {
				t.Fatal(err)
			}
			st := p.SampleStats()
			if !res.Feasible || st.WorldsSaved() == 0 {
				t.Fatalf("fixture must find a feasible plan and stop some states early: feasible %v, %+v", res.Feasible, st)
			}
			sampled, feasible := 0, 0
			for _, r := range log.evals {
				sampled += r.worlds
				if r.ev == nil || !r.ev.Feasible {
					continue
				}
				feasible++
				if r.seen != worlds || r.worlds != worlds {
					t.Errorf("feasible evaluation finalized from %d worlds, sampled %d of %d", r.seen, r.worlds, worlds)
				}
			}
			if feasible == 0 {
				t.Fatal("search evaluated no feasible state")
			}
			// Confirmations run at fixed precision, outside WorldsRun.
			if want := st.WorldsRun + st.Confirmations*worlds; int64(sampled) != want {
				t.Fatalf("kernels sampled %d worlds, WorldsRun and confirmations account for %d: %+v", sampled, want, st)
			}
		})
	}
}

// TestEarlyStopsAreInfeasible pins the soundness of adaptive precision's
// stopping rule: every evaluation an adaptive search finalized before the
// world cap must be infeasible under a full evaluation on the same CRN base.
// A CRN Program stores its worlds most severe first, so a world prefix is no
// i.i.d. sample and a statistical stop on it can be wrong; the exact
// worst-case rule cannot. The fixture is Montage-1 with spot columns under a
// 90% deadline, where over a thousand states stop early.
func TestEarlyStopsAreInfeasible(t *testing.T) {
	const worlds, seed = 100, 1
	w, err := wfgen.Montage(1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 4000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.ExpandSpot([]string{"m1.small", "m1.medium"}); err != nil {
		t.Fatal(err)
	}
	us, err := cat.Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(tbl.Types))
	markets := make([]probir.MarketSpec, len(tbl.Types))
	for j, name := range tbl.Types {
		prices[j] = us.PricePerHour[name]
		if cloud.IsSpotName(name) {
			m := us.Spot[cloud.BaseType(name)]
			prices[j] = m.PricePerHourMean
			markets[j] = probir.MarketSpec{Spot: true, PriceMean: m.PricePerHourMean, PriceSigma: m.PriceSigma,
				RevocationsPerHour: m.RevocationsPerHour, OnDemandUSD: us.PricePerHour[cloud.BaseType(name)]}
		}
	}
	ne, err := probir.NewNativeMarkets(w, tbl, prices, markets, probir.GoalCost,
		[]wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}, worlds)
	if err != nil {
		t.Fatal(err)
	}
	log := &worldLog{}
	p, err := Compile(loggedSpace{NewScheduleSpace(w, ne), log},
		Options{Device: device.Sequential{}, Seed: seed, Adaptive: true, MinWorlds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !p.SampleStats().Adaptive {
		t.Fatal("fixture did not compile adaptive")
	}
	if _, err := p.Search(); err != nil {
		t.Fatal(err)
	}
	kernels, err := ne.Bind(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	stopped, wrong := 0, 0
	for _, r := range log.evals {
		if r.ev == nil || r.seen >= worlds {
			continue
		}
		stopped++
		k, err := kernels(r.state)
		if err != nil {
			t.Fatal(err)
		}
		full, err := probir.RunKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if full.Feasible {
			wrong++
			if wrong <= 5 {
				t.Errorf("state %v stopped infeasible after %d worlds, but is feasible over all %d (P=%v)",
					r.state, r.seen, worlds, full.ConsProb)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no evaluation stopped early; the check is vacuous")
	}
	if wrong > 0 {
		t.Fatalf("%d of %d early stops are feasible under full evaluation", wrong, stopped)
	}
}
