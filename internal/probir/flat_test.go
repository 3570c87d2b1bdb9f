package probir

import (
	"context"
	"errors"
	"sync"
	"testing"

	"deco/internal/wlog"
)

// warmNative builds a small Native fixture, with a sampled deadline, for
// program-cache and row tests.
func warmNative(t testing.TB) *Native {
	t.Helper()
	w, tbl, prices := fixture(t, true)
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}
	n, err := NewNative(w, tbl, prices, GoalCost, cons, 50)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mustProgram returns n's Program for base, built without a deadline.
func mustProgram(n *Native, base int64) *Program {
	p, err := n.program(context.Background(), base)
	if err != nil {
		panic(err)
	}
	return p
}

// TestProgramBuildCancelled checks that a cancelled Program build fails with
// the context's error and caches nothing, so the next search on the Native
// builds the Program afresh and gets the same rows as an uncancelled build.
func TestProgramBuildCancelled(t *testing.T) {
	n := warmNative(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.CRNKernel(ctx, make([]int, n.W.Len()), 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("kernel build under a cancelled context: err %v, want context.Canceled", err)
	}
	if len(n.progs) != 0 {
		t.Fatalf("a cancelled build left %d Programs in the cache", len(n.progs))
	}
	got, want := mustProgram(n, 7), mustProgram(warmNative(t), 7)
	for ri := range want.rows {
		for w := range want.rows[ri] {
			if got.rows[ri][w] != want.rows[ri][w] {
				t.Fatalf("row %d world %d after a cancelled build: %v != %v", ri, w, got.rows[ri][w], want.rows[ri][w])
			}
		}
	}
}

// TestRowsConcurrentWarm builds kernels from many goroutines at once over
// several base seeds, as concurrent searches over one Native do. Every
// goroutine must get the one cached Program of its base, whose rows are
// bit-identical to a Program built alone on an identical evaluator. Under
// -race this also fails if a build races the program cache.
func TestRowsConcurrentWarm(t *testing.T) {
	n := warmNative(t)
	ref := warmNative(t)
	cfg := make([]int, n.W.Len())
	const bases = 4
	progs := make([][]*Program, 16)
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := int64(0); b < bases; b++ {
				k, err := crnKernel(n, cfg, (b+int64(g))%bases)
				if err != nil {
					t.Error(err)
					return
				}
				progs[g] = append(progs[g], k.prog)
			}
		}(g)
	}
	wg.Wait()
	for g := range progs {
		for b, p := range progs[g] {
			base := (int64(b) + int64(g)) % bases
			if p != mustProgram(n, base) {
				t.Fatalf("goroutine %d base %d: a second Program was built", g, base)
			}
		}
	}
	for b := int64(0); b < bases; b++ {
		got, want := mustProgram(n, b), mustProgram(ref, b)
		for ri := range want.rows {
			for w := range want.rows[ri] {
				if got.rows[ri][w] != want.rows[ri][w] {
					t.Fatalf("base %d row %d world %d: %v != reference %v", b, ri, w, got.rows[ri][w], want.rows[ri][w])
				}
			}
		}
	}
}

// TestRowsSharedPointers verifies the rows are shared: two kernels with the
// same (task, type) assignment read the same underlying slice, so repeat
// evaluations of a configuration copy and sample nothing.
func TestRowsSharedPointers(t *testing.T) {
	n := warmNative(t)
	cfg := make([]int, n.W.Len())
	a, err := crnKernel(n, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crnKernel(n, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg {
		if &a.row(int32(i))[0] != &b.row(int32(i))[0] {
			t.Fatalf("task %d: second kernel read a different backing row", i)
		}
	}
}

// TestProgramLRUEviction is the regression test for the random-eviction bug:
// filling the cache beyond maxPrograms must evict the least-recently-used
// base, and never a base that was just touched — a running search's program
// survives unrelated searches starting on the same Native.
func TestProgramLRUEviction(t *testing.T) {
	n := warmNative(t)

	first := mustProgram(n, 0) // base 0 is the running search
	for b := int64(1); b < maxPrograms; b++ {
		mustProgram(n, b) // fill the cache: bases 0..maxPrograms-1
	}
	// Touch base 0 so it is the MRU; base 1 becomes the LRU.
	if got := mustProgram(n, 0); got != first {
		t.Fatalf("base 0 rebuilt while cache below capacity")
	}
	old1 := mustProgram(n, 1) // re-touch 1; now base 2 is LRU
	if len(n.progs) != maxPrograms {
		t.Fatalf("cache holds %d programs, want %d", len(n.progs), maxPrograms)
	}

	// Insert a fresh base at capacity: base 2 (the LRU) must go; 0 and 1
	// must survive with identical pointers.
	old2 := n.progs[2].p
	mustProgram(n, int64(maxPrograms))
	if _, ok := n.progs[2]; ok {
		t.Fatalf("LRU base 2 not evicted")
	}
	if got := mustProgram(n, 0); got != first {
		t.Fatalf("MRU-adjacent base 0 was evicted (its Program was rebuilt)")
	}
	if got := mustProgram(n, 1); got != old1 {
		t.Fatalf("recently used base 1 was evicted")
	}
	// Re-requesting the evicted base rebuilds it (a new Program).
	if got := mustProgram(n, 2); got == old2 {
		t.Fatalf("evicted base 2 returned the stale Program pointer")
	}
}

// TestRowsMatchFreshSource pins the CRN row contract: every (task, type)
// row holds the draws of a fresh source seeded with crnSeed, although one
// rng is reseeded for every row, renumbered decisive-world-first like every
// other row of the Program.
func TestRowsMatchFreshSource(t *testing.T) {
	n := layeredFixture(t, 12, 3, GoalCost, nil, 40) // I/O-bound tasks: draws vary
	checkNumbering(t, n, 7)
}
