package probir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"deco/internal/wlog"
)

// warmNative builds a small Native fixture, with a sampled deadline, for
// binding and row tests; its stochastic I/O makes every row vary by world.
func warmNative(t testing.TB) *Native {
	t.Helper()
	w, tbl, prices := fixture(t, false)
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}
	n, err := NewNative(w, tbl, prices, GoalCost, cons, 50)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mustProgram builds n's Program for base, whatever n's figures sample.
func mustProgram(n *Native, base int64) *Program {
	p, err := n.newProgram(context.Background(), base)
	if err != nil {
		panic(err)
	}
	return p
}

// boundProgram binds n at base and returns the Program its kernels read.
func boundProgram(t testing.TB, n *Native, base int64) *Program {
	t.Helper()
	k, err := crnKernel(n, make([]int, n.W.Len()), base)
	if err != nil {
		t.Fatal(err)
	}
	return k.prog
}

// sameProgramRows fails unless two Programs hold bit-identical duration rows.
func sameProgramRows(t testing.TB, what string, got, want *Program) {
	t.Helper()
	for ri := range want.rows {
		for w := range want.rows[ri] {
			if got.rows[ri][w] != want.rows[ri][w] {
				t.Fatalf("%s: row %d world %d: %v != %v", what, ri, w, got.rows[ri][w], want.rows[ri][w])
			}
		}
	}
}

// TestProgramBuildCancelled checks that a binding under a cancelled context
// fails with the context's error, and that a later binding of the same
// Native samples rows bit-identical to a fresh Native's.
func TestProgramBuildCancelled(t *testing.T) {
	n := warmNative(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Bind(ctx, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("Bind under a cancelled context: err %v, want context.Canceled", err)
	}
	sameProgramRows(t, "after a cancelled bind", boundProgram(t, n, 7), boundProgram(t, warmNative(t), 7))
}

// TestRowsConcurrentWarm binds one Native at one base from many goroutines
// at once, as concurrent searches over one Native do. Every binding must
// sample rows bit-identical to a binding made alone on an identical
// evaluator. Under -race this also fails if two bindings share mutable
// state.
func TestRowsConcurrentWarm(t *testing.T) {
	n := warmNative(t)
	want := boundProgram(t, warmNative(t), 3)
	bound := make([]*Program, 8)
	var wg sync.WaitGroup
	for g := range bound {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k, err := crnKernel(n, make([]int, n.W.Len()), 3)
			if err != nil {
				t.Error(err)
				return
			}
			bound[g] = k.prog
		}(g)
	}
	wg.Wait()
	for g, p := range bound {
		if p == nil {
			t.Fatalf("goroutine %d bound no Program", g)
		}
		sameProgramRows(t, fmt.Sprintf("goroutine %d", g), p, want)
	}
}

// TestRowsSharedPointers verifies that the kernels of one binding share its
// one Program: two kernels, with the same or different configurations,
// read the same Program and, for an equal (task, type) assignment, the same
// backing row, so repeat evaluations copy and sample nothing.
func TestRowsSharedPointers(t *testing.T) {
	n := warmNative(t)
	kernels, err := n.Bind(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make([]int, n.W.Len())
	other := make([]int, n.W.Len())
	other[0] = 1
	var ks []*nativeKernel
	for _, c := range [][]int{cfg, cfg, other} {
		k, err := kernels(c)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k.(*nativeKernel))
	}
	a, b, c := ks[0], ks[1], ks[2]
	if a.prog == nil || b.prog != a.prog || c.prog != a.prog {
		t.Fatalf("kernels of one binding read different Programs: %p, %p, %p", a.prog, b.prog, c.prog)
	}
	for i := range cfg {
		if &a.prog.row(i, a.config[i])[0] != &b.prog.row(i, b.config[i])[0] {
			t.Fatalf("task %d: second kernel read a different backing row", i)
		}
	}
}

// TestRowsMatchFreshSource pins the CRN row contract: every (task, type)
// row holds the draws of a fresh source seeded with MixSeed(base^crnStream,
// row), although one
// rng is reseeded for every row, renumbered decisive-world-first like every
// other row of the Program.
func TestRowsMatchFreshSource(t *testing.T) {
	n := layeredFixture(t, 12, 3, GoalCost, nil, 40) // I/O-bound tasks: draws vary
	checkNumbering(t, n, 7)
}
