package probir_test

import (
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// poolNative builds a deadline-constrained Native over a CyberShake workflow
// of about tasks tasks, the shape whose searches capture snapshots.
func poolNative(t *testing.T, tasks, iters int) (*dag.Workflow, *probir.Native) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(tasks)))
	w, err := wfgen.BySize(wfgen.AppCyberShake, tasks, rng)
	if err != nil {
		t.Fatal(err)
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 15, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := estimate.New(cat, md).BuildTable(w)
	if err != nil {
		t.Fatal(err)
	}
	us, err := cat.Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(tbl.Types))
	for j, name := range tbl.Types {
		prices[j] = us.PricePerHour[name]
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 3000}}
	n, err := probir.NewNative(w, tbl, prices, probir.GoalCost, cons, iters)
	if err != nil {
		t.Fatal(err)
	}
	return w, n
}

// TestSnapshotArenasServeSmallerSearch pins the size-tolerant freelist: once
// a search over an 80-task workflow has drained its snapshots into the
// freelist, a following search over a 40-task workflow builds every
// snapshot from those arenas and allocates none fresh.
func TestSnapshotArenasServeSmallerSearch(t *testing.T) {
	search := func(tasks int) (int, opt.DeltaStats) {
		w, n := poolNative(t, tasks, 100)
		p, err := opt.Compile(opt.NewScheduleSpace(w, n), opt.Options{Seed: 1, MaxStates: 200, BeamWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Search(); err != nil {
			t.Fatal(err)
		}
		ds := p.DeltaStats()
		if ds.DeltaEvals == 0 {
			t.Fatalf("the %d-task search evaluated nothing incrementally: %+v", w.Len(), ds)
		}
		return w.Len(), ds
	}
	large, _ := search(80)
	before, _, _ := probir.SnapshotPool()
	small, ds := search(40)
	after, _, _ := probir.SnapshotPool()
	if small >= large {
		t.Fatalf("the second workflow has %d tasks, the first %d", small, large)
	}
	if after != before {
		t.Fatalf("the %d-task search (%d snapshots) allocated %d fresh snapshot arenas after a %d-task search drained",
			small, ds.Snapshots, after-before, large)
	}
}

// TestSnapshotPoolBound releases more arena capacity than the freelist's
// bound, in several shapes (each more than the bound on its own), plus one arena larger than the whole bound:
// the capacity the freelist holds never exceeds the bound, and its books
// match the arenas it holds.
func TestSnapshotPoolBound(t *testing.T) {
	check := func(what string) {
		t.Helper()
		_, booked, held := probir.SnapshotPool()
		if held > probir.SnapshotPoolBytes || booked != held {
			t.Fatalf("%s: freelist holds %d bytes of capacity (books %d), bound %d", what, held, booked, probir.SnapshotPoolBytes)
		}
	}
	for _, shape := range []struct{ tasks, iters int }{{80, 400}, {40, 400}, {80, 100}} {
		_, n := poolNative(t, shape.tasks, shape.iters)
		var snaps []*probir.Snapshot
		for held := int64(0); held <= probir.SnapshotPoolBytes+probir.SnapshotPoolBytes/4; {
			s := n.NewSnapshot()
			held += s.Bytes()
			snaps = append(snaps, s)
		}
		for _, s := range snaps {
			n.ReleaseSnapshot(s)
		}
		check("after releasing more than the bound")
	}
	w, _ := poolNative(t, 40, 1)
	_, huge := poolNative(t, 40, probir.SnapshotPoolBytes/8/w.Len()+1)
	s := huge.NewSnapshot()
	if s.Bytes() <= probir.SnapshotPoolBytes {
		t.Fatalf("snapshot of %d bytes does not exceed the bound", s.Bytes())
	}
	huge.ReleaseSnapshot(s)
	check("after releasing an arena over the bound")
	if got := huge.NewSnapshot(); got == s {
		t.Fatal("an arena larger than the bound was retained")
	}
}
