package probir

import (
	"math/rand"
	"sort"
	"testing"

	"deco/internal/wlog"
)

// streamRows samples every (task, type) row of a Native's CRN matrix in
// stream order, each from a fresh source seeded with MixSeed(base^crnStream,
// row): the matrix a
// Program holds before it numbers its worlds. Spot columns also return their
// paired cost rows.
func streamRows(n *Native, base int64) (rows, costRows [][]float64) {
	nr := n.W.Len() * n.NumTypes()
	rows, costRows = make([][]float64, nr), make([][]float64, nr)
	for ri := range rows {
		i, j := ri/n.NumTypes(), ri%n.NumTypes()
		rng := rand.New(rand.NewSource(MixSeed(base^crnStream, ri)))
		rows[ri] = make([]float64, n.Iters)
		if n.Markets != nil && n.Markets[j].Spot {
			costRows[ri] = make([]float64, n.Iters)
			fillSpotRow(n.ftab.Dist(i, j), n.Markets[j], rng, rows[ri], costRows[ri])
			continue
		}
		for it := range rows[ri] {
			rows[ri][it] = n.ftab.Dist(i, j).Sample(rng)
		}
	}
	return rows, costRows
}

// severity replays the documented signal over rows indexed [task*nTypes+type]
// [world]: per world, the sum over types of the makespan with every task on
// that type.
func severity(n *Native, rows [][]float64) []float64 {
	sev := make([]float64, n.Iters)
	dur, finish := make([]float64, n.W.Len()), make([]float64, n.W.Len())
	for j := 0; j < n.NumTypes(); j++ {
		for it := range sev {
			for i := range dur {
				dur[i] = rows[i*n.NumTypes()+j][it]
			}
			sev[it] += n.flat.Makespan(dur, finish)
		}
	}
	return sev
}

// worldNumbering is the decisive-world-first numbering by its definition:
// stream indices sorted by descending severity, ties by ascending index.
func worldNumbering(n *Native, rows [][]float64) []int {
	sev := severity(n, rows)
	order := make([]int, n.Iters)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sev[order[a]] > sev[order[b]] })
	return order
}

// checkNumbering fails unless every duration and cost row of the program is
// the stream-order draw permuted into the decisive-world-first numbering:
// position p of every row holds the draw of stream index order[p].
func checkNumbering(t *testing.T, n *Native, base int64) {
	t.Helper()
	rows, costRows := streamRows(n, base)
	order := worldNumbering(n, rows)
	p := mustProgram(n, base)
	for ri := range rows {
		for pos, w := range order {
			if got, want := p.rows[ri][pos], rows[ri][w]; got != want {
				t.Fatalf("row %d position %d: %v, want stream draw %d (%v)", ri, pos, got, w, want)
			}
			if costRows[ri] == nil {
				continue
			}
			if got, want := p.costRows[ri][pos], costRows[ri][w]; got != want {
				t.Fatalf("cost row %d position %d: %v, want stream draw %d (%v)", ri, pos, got, w, want)
			}
		}
		if costRows[ri] == nil && p.costRows != nil && p.costRows[ri] != nil {
			t.Fatalf("on-demand row %d carries a cost row", ri)
		}
	}
}

// TestWorldOrderPermutation checks the decisive-world-first numbering
// contract: a Program stores every row in descending severity, the
// numbering is one permutation shared by every duration and cost row, and it
// is bit-identical across independently built evaluators over the same
// program content and base seed — the property the adaptive search relies
// on for device invariance.
func TestWorldOrderPermutation(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.95, Bound: 2000}}
	const iters = 128
	const base = 42
	n1, err := NewNative(w, tbl, prices, GoalCost, cons, iters)
	if err != nil {
		t.Fatal(err)
	}
	checkNumbering(t, n1, base)

	// Stored rows replay to a non-increasing severity by position.
	sev := severity(n1, mustProgram(n1, base).rows)
	for p := 1; p < iters; p++ {
		if sev[p] > sev[p-1] {
			t.Fatalf("position %d severity %g exceeds position %d's %g", p, sev[p], p-1, sev[p-1])
		}
	}

	// An independently built evaluator over the same inputs stores the same
	// rows: the numbering depends only on program content and base seed.
	n2, err := NewNative(w, tbl, prices, GoalCost, cons, iters)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustProgram(n1, base), mustProgram(n2, base)
	for ri := range a.rows {
		for p := range a.rows[ri] {
			if a.rows[ri][p] != b.rows[ri][p] {
				t.Fatalf("row %d position %d differs across evaluators: %v vs %v", ri, p, a.rows[ri][p], b.rows[ri][p])
			}
		}
	}

	// Spot columns: the paired cost rows share the duration rows' numbering.
	sw, stbl, sprices, markets := marketFixture(t)
	ns, err := NewNativeMarkets(sw, stbl, sprices, markets, GoalCost, cons, 64)
	if err != nil {
		t.Fatal(err)
	}
	checkNumbering(t, ns, 9)
}

// TestWorldOrderNilWithoutSampling checks that binding a program whose
// evaluation runs no Monte-Carlo worlds (cost goal, mean-notion constraints
// only) builds no CRN Program: there are no worlds to sample or number.
func TestWorldOrderNilWithoutSampling(t *testing.T) {
	w, tbl, prices := fixture(t, false)
	cons := []wlog.Constraint{{Kind: "budget", Percentile: -1, Bound: 100}}
	n, err := NewNative(w, tbl, prices, GoalCost, cons, 64)
	if err != nil {
		t.Fatal(err)
	}
	k, err := crnKernel(n, make([]int, n.W.Len()), 7)
	if err != nil {
		t.Fatal(err)
	}
	if k.prog != nil || k.Worlds() != 0 {
		t.Fatalf("world-free program bound a CRN Program (%v) over %d worlds", k.prog != nil, k.Worlds())
	}
}
