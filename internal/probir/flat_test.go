package probir

import (
	"math/rand"
	"sync"
	"testing"
)

// warmNative builds a small Native fixture for program-cache and Rows tests.
func warmNative(t testing.TB) *Native {
	t.Helper()
	w, tbl, prices := fixture(t, true)
	n, err := NewNative(w, tbl, prices, GoalCost, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRowsConcurrentWarm hammers Rows from many goroutines over configs that
// partially overlap, mixing warm reads with first fills. Under -race this
// fails if the lock-free fast path races the double-checked fill; the value
// checks fail if two racing fills ever publish different samples for one
// (task, type) row.
func TestRowsConcurrentWarm(t *testing.T) {
	n := warmNative(t)
	p := n.program(42)
	nTasks := n.W.Len()
	nTypes := n.NumTypes()

	configs := make([][]int, 8)
	for c := range configs {
		cfg := make([]int, nTasks)
		for i := range cfg {
			cfg[i] = (c + i) % nTypes
		}
		configs[c] = cfg
	}
	// Reference rows, filled single-threaded on an identical program.
	ref := n.program(43)
	refRows := make([][][]float64, len(configs))
	for c, cfg := range configs {
		refRows[c] = ref.Rows(cfg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				c := (g + rep) % len(configs)
				rows := p.Rows(configs[c])
				for i := range rows {
					if len(rows[i]) != p.iters {
						t.Errorf("row %d: len %d, want %d", i, len(rows[i]), p.iters)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Same base seed => every row must be bit-identical to the
	// single-threaded reference, however the concurrent fills interleaved.
	p2 := n.program(42)
	if p2 != p {
		t.Fatalf("program(42) returned a different Program after concurrent use")
	}
	for c, cfg := range configs {
		got := p.Rows(cfg)
		for i := range got {
			for it := range got[i] {
				if got[i][it] != refRows[c][i][it] {
					t.Fatalf("config %d task %d world %d: %v != reference %v",
						c, i, it, got[i][it], refRows[c][i][it])
				}
			}
		}
	}
}

// TestRowsSharedPointers verifies filled rows are shared: two Rows calls with
// the same (task, type) assignment hand out the same underlying slice, so
// repeat evaluations of a configuration do no sampling work.
func TestRowsSharedPointers(t *testing.T) {
	n := warmNative(t)
	p := n.program(7)
	cfg := make([]int, n.W.Len())
	a := p.Rows(cfg)
	b := p.Rows(cfg)
	for i := range a {
		if &a[i][0] != &b[i][0] {
			t.Fatalf("task %d: second Rows call returned a different backing row", i)
		}
	}
}

// TestProgramLRUEviction is the regression test for the random-eviction bug:
// filling the cache beyond maxPrograms must evict the least-recently-used
// base, and never a base that was just touched — a running search's program
// survives unrelated searches starting on the same Native.
func TestProgramLRUEviction(t *testing.T) {
	n := warmNative(t)

	first := n.program(0) // base 0 is the running search
	for b := int64(1); b < maxPrograms; b++ {
		n.program(b) // fill the cache: bases 0..maxPrograms-1
	}
	// Touch base 0 so it is the MRU; base 1 becomes the LRU.
	if got := n.program(0); got != first {
		t.Fatalf("base 0 rebuilt while cache below capacity")
	}
	old1 := n.program(1) // re-touch 1; now base 2 is LRU
	if len(n.progs) != maxPrograms {
		t.Fatalf("cache holds %d programs, want %d", len(n.progs), maxPrograms)
	}

	// Insert a fresh base at capacity: base 2 (the LRU) must go; 0 and 1
	// must survive with identical pointers.
	old2 := n.progs[2].p
	n.program(int64(maxPrograms))
	if _, ok := n.progs[2]; ok {
		t.Fatalf("LRU base 2 not evicted")
	}
	if got := n.program(0); got != first {
		t.Fatalf("MRU-adjacent base 0 was evicted (its Program was rebuilt)")
	}
	if got := n.program(1); got != old1 {
		t.Fatalf("recently used base 1 was evicted")
	}
	// Re-requesting the evicted base rebuilds it (a new Program).
	if got := n.program(2); got == old2 {
		t.Fatalf("evicted base 2 returned the stale Program pointer")
	}
}

// BenchmarkRowsWarmParallel measures the warm-path Rows throughput under
// parallelism: every row is pre-filled, so with the lock-free fast path the
// goroutines never serialize. Before the fix this benchmark collapsed onto a
// single global mutex.
func BenchmarkRowsWarmParallel(b *testing.B) {
	w, tbl, prices := fixture(b, true)
	n, err := NewNative(w, tbl, prices, GoalCost, nil, 100)
	if err != nil {
		b.Fatal(err)
	}
	p := n.program(1)
	cfg := make([]int, n.W.Len())
	p.Rows(cfg) // warm every row
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Rows(cfg)
		}
	})
}

// TestRowsMatchFreshSource pins the CRN row contract across fills: every
// (task, type) row holds the draws of a fresh source seeded with crnSeed,
// whichever rows were filled before it on the program's reused rng.
func TestRowsMatchFreshSource(t *testing.T) {
	n := deltaFixture(t, 12, 3, GoalCost, nil, 40) // I/O-bound tasks: draws vary
	const base = int64(7)
	p := n.program(base)
	nTasks, nTypes := n.W.Len(), n.NumTypes()
	for j := nTypes - 1; j >= 0; j-- {
		config := make([]int, nTasks)
		for i := range config {
			config[i] = (i + j) % nTypes
		}
		rows := p.Rows(config)
		for i, tj := range config {
			rng := rand.New(rand.NewSource(crnSeed(base, i*nTypes+tj)))
			td := n.ftab.Dist(i, tj)
			for it, got := range rows[i] {
				if want := td.Sample(rng); got != want {
					t.Fatalf("task %d type %d world %d: %v != fresh-source draw %v", i, tj, it, got, want)
				}
			}
		}
	}
}
