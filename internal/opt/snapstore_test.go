package opt

import (
	"math/rand"
	"testing"

	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/wfgen"
)

// TestSnapshotStoreEvictsWorstScore pins the store's retention policy: over
// budget it releases the worst-scored entry first (ties by the larger key;
// the entry being stored survives its own put), a same-key replace and a
// remove each release exactly once, and stats stay consistent throughout.
func TestSnapshotStoreEvictsWorstScore(t *testing.T) {
	w := cpuChain(t, 6, 300)
	small, _ := buildEval(t, w, 1300, 0.9, 20)
	large, _ := buildEval(t, w, 1300, 0.9, 40)
	// The store releases into the test's ledger, never the freelist, so
	// every NewSnapshot below is a distinct snapshot.
	sz := small.NewSnapshot().Bytes()
	released := map[*probir.Snapshot]int{}
	var order []string
	names := map[*probir.Snapshot]string{}
	s := newSnapStore(3*sz, func(sn *probir.Snapshot) {
		released[sn]++
		order = append(order, names[sn])
	})
	put := func(key string, score float64, ne *probir.Native) *probir.Snapshot {
		sn := ne.NewSnapshot()
		names[sn] = key
		s.put(key, score, sn)
		return sn
	}
	wantStats := func(entries int, bytes, evictions int64) {
		t.Helper()
		n, b, ev := s.stats()
		if n != entries || b != bytes || ev != evictions {
			t.Fatalf("stats (%d entries, %d bytes, %d evictions), want (%d, %d, %d)", n, b, ev, entries, bytes, evictions)
		}
	}
	wantReleased := func(want ...string) {
		t.Helper()
		if len(order) != len(want) {
			t.Fatalf("released %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("released %v, want %v", order, want)
			}
		}
	}

	put("a", 5, small)
	put("b", 1, small)
	put("c", 3, small)
	wantStats(3, 3*sz, 0)
	wantReleased()

	put("d", 3, small) // a (5) is the worst
	put("e", 0, small) // c and d tie at 3: the larger key goes
	put("f", 4, small) // f is the worst, but survives its own put: c goes
	put("g", 2, small) // now f goes
	wantReleased("a", "d", "c", "f")
	wantStats(3, 3*sz, 4)

	// A snapshot twice the size evicts the two worst others, worst first.
	big := put("x", 0, large)
	if big.Bytes() != 2*sz {
		t.Fatalf("fixture: large snapshot %d bytes, small %d", big.Bytes(), sz)
	}
	wantReleased("a", "d", "c", "f", "g", "b")
	wantStats(2, 3*sz, 6)

	// Replacing a key releases the old snapshot once and re-ranks the entry.
	old, _ := s.get("e")
	put("e", 9, small)
	if released[old] != 1 {
		t.Fatalf("replace released the old snapshot %d times", released[old])
	}
	wantStats(2, 3*sz, 6)
	put("h", 0.5, small) // over budget: e (now 9) is the worst
	wantReleased("a", "d", "c", "f", "g", "b", "e", "e")
	wantStats(2, 3*sz, 7)

	// remove releases once; removing an absent key is a no-op.
	s.remove("h")
	s.remove("h")
	s.remove("absent")
	wantReleased("a", "d", "c", "f", "g", "b", "e", "e", "h")
	wantStats(1, big.Bytes(), 7)
	if _, ok := s.get("h"); ok {
		t.Fatal("removed key still stored")
	}
	if got, ok := s.get("x"); !ok || got != big {
		t.Fatalf("get x: %v %v", got, ok)
	}

	if n, b := s.drain(); n != 1 || b != big.Bytes() {
		t.Fatalf("drain returned (%d, %d)", n, b)
	}
	wantStats(0, 0, 7)
	for sn, n := range released {
		if n != 1 {
			t.Fatalf("snapshot %q released %d times", names[sn], n)
		}
	}
	if len(released) != len(names) {
		t.Fatalf("%d of %d snapshots released", len(released), len(names))
	}
}

// TestSearchReleasesExpandedParents runs generic and A* searches on a
// Montage workflow under a snapshot budget of a few beams: because expanded
// parents give their snapshots back and the store evicts the states the
// search would expand last, almost no parent needs a full re-evaluation
// (completeParent) — and routing never changes a result, so both searches
// match the delta-disabled ones bit for bit. The completion bounds are about
// twice the counts measured (4 generic, 0 A*); evicting in insertion order
// instead of by score reads 59 and 5 completions here, and never releasing
// expanded parents 24 (generic).
func TestSearchReleasesExpandedParents(t *testing.T) {
	w, err := wfgen.Montage(2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ne, _ := buildEval(t, w, 1500, 0.9, 30)
	space := NewScheduleSpace(w, ne)
	const beam = 4
	snap := ne.NewSnapshot()
	size := snap.Bytes()
	ne.ReleaseSnapshot(snap)
	for _, tc := range []struct {
		astar          bool
		beams          int64 // budget, in BeamWidth snapshots
		maxCompletions int64
		minDeltaEvals  int64
	}{
		{astar: false, beams: 6, maxCompletions: 8, minDeltaEvals: 650}, // measured 4 completions, 695 delta
		{astar: true, beams: 1, maxCompletions: 1, minDeltaEvals: 90},   // measured 0 completions, 99 delta
	} {
		o := Options{Device: device.Sequential{}, Seed: 3, MaxStates: 800, BeamWidth: beam, AStar: tc.astar}
		o.SnapshotBudget = tc.beams * beam * size
		on, err := Compile(space, o)
		if err != nil {
			t.Fatal(err)
		}
		o.SnapshotBudget = -1
		off, err := Compile(space, o)
		if err != nil {
			t.Fatal(err)
		}
		ron, err := on.Search()
		if err != nil {
			t.Fatal(err)
		}
		roff, err := off.Search()
		if err != nil {
			t.Fatal(err)
		}
		if ron.Best.Key() != roff.Best.Key() || ron.Evaluated != roff.Evaluated || ron.Levels != roff.Levels ||
			ron.BestEval.Value != roff.BestEval.Value || ron.BestEval.Violation != roff.BestEval.Violation ||
			ron.Feasible != roff.Feasible {
			t.Fatalf("astar=%v: delta search %+v %+v differs from full %+v %+v", tc.astar, ron, ron.BestEval, roff, roff.BestEval)
		}
		st := on.DeltaStats()
		if st.Evictions == 0 {
			t.Fatalf("astar=%v: the budget never forced an eviction: %+v", tc.astar, st)
		}
		if st.ParentCompletions > tc.maxCompletions || st.DeltaEvals < tc.minDeltaEvals {
			t.Errorf("astar=%v: %d parent completions (max %d), %d delta evaluations (min %d) over %d states; expanded parents lost their snapshots: %+v",
				tc.astar, st.ParentCompletions, tc.maxCompletions, st.DeltaEvals, tc.minDeltaEvals, ron.Evaluated, st)
		}
	}
}
