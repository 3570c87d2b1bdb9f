package opt

import (
	"context"
	"testing"

	"deco/internal/cloud"
	"deco/internal/device"
	"deco/internal/probir"
)

func TestEvalCacheLRU(t *testing.T) {
	c := NewEvalCache(2)
	ev := func(v float64) *probir.Evaluation { return &probir.Evaluation{Value: v} }
	c.Put("a", ev(1))
	c.Put("b", ev(2))
	if _, ok := c.Get("a"); !ok { // a is now most-recently used
		t.Fatal("a missing")
	}
	c.Put("c", ev(3)) // evicts b, the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if got, ok := c.Get("a"); !ok || got.Value != 1 {
		t.Errorf("a: %+v %v", got, ok)
	}
	if got, ok := c.Get("c"); !ok || got.Value != 3 {
		t.Errorf("c: %+v %v", got, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
	// 4 hits (a, a, c) + 2 misses (initial a... ) — count precisely:
	// Get(a) hit, Get(b) miss, Get(a) hit, Get(c) hit.
	if c.Hits() != 3 || c.Misses() != 1 {
		t.Errorf("hits %d misses %d, want 3/1", c.Hits(), c.Misses())
	}
	// Re-Put of an existing key replaces in place, no growth.
	c.Put("a", ev(9))
	if got, _ := c.Get("a"); got.Value != 9 || c.Len() != 2 {
		t.Errorf("replace: %+v len %d", got, c.Len())
	}
}

func TestEvalCacheDefaultCapacity(t *testing.T) {
	if NewEvalCache(0).cap != DefaultEvalCacheCapacity {
		t.Error("zero capacity not defaulted")
	}
	if NewEvalCache(-1).cap != DefaultEvalCacheCapacity {
		t.Error("negative capacity not defaulted")
	}
}

// A zero-value Options must behave exactly like DefaultOptions on every
// field it leaves unset — in particular Seed, which silently ran as 0 while
// DefaultOptions used 1.
func TestZeroOptionsSeedDefaultsToOne(t *testing.T) {
	var o Options
	fillDefaults(&o)
	if o.Seed != 1 {
		t.Fatalf("zero Options seed %d, want 1", o.Seed)
	}
	w := cpuChain(t, 4, 400)
	ne, _ := buildEval(t, w, 900, 0.95, 30)
	run := func(o Options) *Result {
		res, err := Search(NewScheduleSpace(w, ne), o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := run(Options{Device: device.Sequential{}, MaxStates: 300})
	one := run(Options{Device: device.Sequential{}, MaxStates: 300, Seed: 1})
	if zero.Best.Key() != one.Best.Key() || zero.BestEval.Value != one.BestEval.Value ||
		zero.Evaluated != one.Evaluated {
		t.Errorf("zero-seed search %+v differs from seed-1 search %+v", zero, one)
	}
}

// A search with a warm cache must retrace the cold search exactly — same
// best state, same figures, same number of evaluations — while actually
// hitting the cache.
func TestSearchWithEvalCacheIsTrajectoryIdentical(t *testing.T) {
	w := cpuChain(t, 4, 400)
	ne, tbl := buildEval(t, w, 900, 0.95, 30)
	us, _ := cloud.DefaultCatalog().Region(cloud.USEast)
	prices := make([]float64, len(tbl.Types))
	for j, n := range tbl.Types {
		prices[j] = us.PricePerHour[n]
	}
	sp := NewPackedScheduleSpace(w, ne, tbl, prices, cloud.USEast)
	cache := NewEvalCache(0)
	base := Options{Device: device.TwoLevel{}, MaxStates: 400, Seed: 7, Cache: cache}

	cold, err := Search(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 || cache.Misses() == 0 {
		t.Fatalf("cold search did not populate the cache: len %d", cache.Len())
	}
	if cache.Hits() != 0 {
		t.Fatalf("cold search hit an empty cache: %d", cache.Hits())
	}

	warm, err := Search(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() == 0 {
		t.Fatal("warm search never hit the cache")
	}
	if warm.Best.Key() != cold.Best.Key() {
		t.Errorf("warm best %v != cold %v", warm.Best, cold.Best)
	}
	if warm.Evaluated != cold.Evaluated {
		t.Errorf("warm evaluated %d != cold %d (hits must still count)", warm.Evaluated, cold.Evaluated)
	}
	gw, gc := warm.BestEval, cold.BestEval
	if gw.Value != gc.Value || gw.Feasible != gc.Feasible || gw.Violation != gc.Violation {
		t.Errorf("warm eval {%v %v %v} != cold {%v %v %v}",
			gw.Value, gw.Feasible, gw.Violation, gc.Value, gc.Feasible, gc.Violation)
	}

	// A different seed is a different realization: it must not share entries.
	pre := cache.Hits()
	diff := base
	diff.Seed = 8
	if _, err := Search(sp, diff); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != pre {
		t.Errorf("seed-8 search hit seed-7 entries (%d new hits)", cache.Hits()-pre)
	}
}

// Spaces that cannot identify their evaluation (a CostFn objective without a
// CostTag) must disable caching rather than risk serving wrong entries.
func TestSearchCacheDisabledForUnidentifiableSpace(t *testing.T) {
	w := cpuChain(t, 4, 400)
	ne, _ := buildEval(t, w, 900, 0.95, 20)
	sp := NewScheduleSpace(w, ne)
	sp.CostFn = func(st State) (float64, error) { return float64(len(st)), nil }
	// CostTag deliberately left empty.
	if fp := sp.Describe(context.Background(), 3).Fingerprint; fp != "" {
		t.Fatalf("unidentifiable space fingerprinted as %q", fp)
	}
	cache := NewEvalCache(0)
	if _, err := Search(sp, Options{Device: device.Sequential{}, MaxStates: 100, Seed: 3, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 || cache.Hits() != 0 || cache.Misses() != 0 {
		t.Errorf("cache touched for unidentifiable space: len %d hits %d misses %d",
			cache.Len(), cache.Hits(), cache.Misses())
	}
}
