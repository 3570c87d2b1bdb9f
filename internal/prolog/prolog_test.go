package prolog

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// assertRules loads clauses built programmatically.
func machineWith(t *testing.T, clauses ...*Clause) *Machine {
	t.Helper()
	m := NewMachine()
	for _, c := range clauses {
		if err := m.Assert(c); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestUnifyBasics(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	if !m.Unify(x, Atom("a")) {
		t.Fatal("var-atom unify failed")
	}
	if deref(x) != Atom("a") {
		t.Fatal("binding not visible")
	}
	// Atom mismatch.
	mark := m.mark()
	if m.Unify(Atom("a"), Atom("b")) {
		t.Fatal("distinct atoms unified")
	}
	m.undo(mark)
	// Compound unification binds inner vars.
	y := NewVar("Y")
	if !m.Unify(Comp("f", Atom("a"), y), Comp("f", NewVar("Z"), Number(3))) {
		t.Fatal("compound unify failed")
	}
	if deref(y) != Number(3) {
		t.Fatal("inner binding missing")
	}
	// Arity mismatch.
	if m.Unify(Comp("f", Atom("a")), Comp("f", Atom("a"), Atom("b"))) {
		t.Fatal("arity mismatch unified")
	}
	// Number equality.
	if !m.Unify(Number(2), Number(2)) || m.Unify(Number(2), Number(3)) {
		t.Fatal("number unification wrong")
	}
}

func TestUndoRestoresBindings(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	mark := m.mark()
	m.Unify(x, Atom("a"))
	m.undo(mark)
	if x.Ref != nil {
		t.Fatal("undo did not unbind")
	}
}

func TestFactsAndQuery(t *testing.T) {
	m := machineWith(t,
		&Clause{Head: Comp("edge", Atom("a"), Atom("b"))},
		&Clause{Head: Comp("edge", Atom("b"), Atom("c"))},
	)
	ok, err := m.Query(Comp("edge", Atom("a"), Atom("b")))
	if err != nil || !ok {
		t.Fatalf("fact query: %v %v", ok, err)
	}
	ok, err = m.Query(Comp("edge", Atom("a"), Atom("c")))
	if err != nil || ok {
		t.Fatalf("absent fact proved: %v %v", ok, err)
	}
}

func TestRecursiveRules(t *testing.T) {
	// reach(X,Y) :- edge(X,Y).
	// reach(X,Y) :- edge(X,Z), reach(Z,Y).
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	m := machineWith(t,
		&Clause{Head: Comp("edge", Atom("a"), Atom("b"))},
		&Clause{Head: Comp("edge", Atom("b"), Atom("c"))},
		&Clause{Head: Comp("edge", Atom("c"), Atom("d"))},
		&Clause{Head: Comp("reach", x, y), Body: []Term{Comp("edge", x, y)}},
		&Clause{Head: Comp("reach", x, y), Body: []Term{Comp("edge", x, z), Comp("reach", z, y)}},
	)
	ok, err := m.Query(Comp("reach", Atom("a"), Atom("d")))
	if err != nil || !ok {
		t.Fatalf("transitive reach failed: %v %v", ok, err)
	}
	// Enumerate all reachable from a.
	w := NewVar("W")
	sols, err := m.FindAll(w, Comp("reach", Atom("a"), w))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Fatalf("reachable set %v, want 3 nodes", sols)
	}
}

func TestArithmeticIs(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	res, found, err := m.Once(x, Comp("is", x, Comp("+", Number(2), Comp("*", Number(3), Number(4)))))
	if err != nil || !found {
		t.Fatalf("is failed: %v %v", found, err)
	}
	if res != Number(14) {
		t.Fatalf("2+3*4 = %v", res)
	}
	// Division by zero errors.
	if _, _, err := m.Once(x, Comp("is", x, Comp("/", Number(1), Number(0)))); err == nil {
		t.Fatal("division by zero accepted")
	}
	// Unbound arithmetic errors.
	if _, _, err := m.Once(x, Comp("is", x, NewVar("U"))); err == nil {
		t.Fatal("unbound arith accepted")
	}
}

func TestEvalArithFunctions(t *testing.T) {
	cases := []struct {
		t    Term
		want float64
	}{
		{Comp("-", Number(10), Number(4)), 6},
		{Comp("-", Number(5)), -5},
		{Comp("abs", Number(-3)), 3},
		{Comp("sqrt", Number(16)), 4},
		{Comp("floor", Number(2.7)), 2},
		{Comp("ceiling", Number(2.1)), 3},
		{Comp("min", Number(3), Number(5)), 3},
		{Comp("max", Number(3), Number(5)), 5},
		{Comp("mod", Number(7), Number(3)), 1},
		{Atom("pi"), 3.141592653589793},
	}
	for _, c := range cases {
		got, err := EvalArith(c.t)
		if err != nil {
			t.Errorf("%s: %v", c.t, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.t, got, c.want)
		}
	}
	if _, err := EvalArith(Comp("frobnicate", Number(1))); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := EvalArith(Atom("zz")); err == nil {
		t.Error("non-arith atom accepted")
	}
}

func TestComparisons(t *testing.T) {
	m := NewMachine()
	for _, c := range []struct {
		op   string
		a, b float64
		want bool
	}{
		{"<", 1, 2, true}, {"<", 2, 1, false},
		{">", 2, 1, true}, {"=<", 2, 2, true},
		{">=", 1, 2, false}, {"=:=", 3, 3, true}, {"=\\=", 3, 3, false},
	} {
		ok, err := m.Query(Comp(c.op, Number(c.a), Number(c.b)))
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.op, c.b, err)
		}
		if ok != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, ok, c.want)
		}
	}
}

func TestFindallSetofSumMax(t *testing.T) {
	m := machineWith(t,
		&Clause{Head: Comp("cost", Atom("t1"), Number(5))},
		&Clause{Head: Comp("cost", Atom("t2"), Number(3))},
		&Clause{Head: Comp("cost", Atom("t3"), Number(5))},
	)
	c, bag, total := NewVar("C"), NewVar("Bag"), NewVar("Total")
	// findall + sum: the totalcost pattern of Example 1 rule r5.
	goal := Comp(",",
		Comp("findall", c, Comp("cost", NewVar("T"), c), bag),
		Comp("sum", bag, total))
	res, found, err := m.Once(total, goal)
	if err != nil || !found {
		t.Fatalf("findall/sum: %v %v", found, err)
	}
	if res != Number(13) {
		t.Fatalf("total %v, want 13", res)
	}

	// setof: sorted unique values.
	set := NewVar("Set")
	res, found, err = m.Once(set, Comp("setof", c, Comp("cost", NewVar("T2"), c), set))
	if err != nil || !found {
		t.Fatalf("setof: %v %v", found, err)
	}
	if res.String() != "[3,5]" {
		t.Fatalf("setof %v", res)
	}

	// setof fails on no solutions.
	ok, err := m.Query(Comp("setof", c, Comp("cost", Atom("zz"), c), set))
	if err != nil || ok {
		t.Fatalf("setof on empty should fail: %v %v", ok, err)
	}

	// max over pairs by last element — the maxtime pattern of rule r3.
	pairs := MkList(
		MkList(Atom("p1"), Number(10)),
		MkList(Atom("p2"), Number(30)),
		MkList(Atom("p3"), Number(20)))
	best := NewVar("Best")
	res, found, err = m.Once(best, Comp("max", pairs, best))
	if err != nil || !found {
		t.Fatalf("max: %v %v", found, err)
	}
	if res.String() != "[p2,30]" {
		t.Fatalf("max pair %v", res)
	}
	// max over numbers.
	res, _, _ = m.Once(best, Comp("max", MkList(Number(4), Number(9), Number(2)), best))
	if res != Number(9) {
		t.Fatalf("max number %v", res)
	}
	// min.
	res, _, _ = m.Once(best, Comp("min", MkList(Number(4), Number(9), Number(2)), best))
	if res != Number(2) {
		t.Fatalf("min %v", res)
	}
	// max on empty fails.
	ok, err = m.Query(Comp("max", MkList(), best))
	if err != nil || ok {
		t.Fatal("max on empty should fail")
	}
}

func TestMemberAppendLengthBetweenNth0Sort(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	list := MkList(Atom("a"), Atom("b"), Atom("c"))

	sols, err := m.FindAll(x, Comp("member", x, list))
	if err != nil || len(sols) != 3 {
		t.Fatalf("member: %v %v", sols, err)
	}

	z := NewVar("Z")
	res, found, err := m.Once(z, Comp("append", MkList(Number(1)), MkList(Number(2)), z))
	if err != nil || !found || res.String() != "[1,2]" {
		t.Fatalf("append: %v %v %v", res, found, err)
	}
	// Relational append: enumerate splits.
	a, b := NewVar("A"), NewVar("B")
	splits, err := m.FindAll(MkList(a, b), Comp("append", a, b, MkList(Number(1), Number(2))))
	if err != nil || len(splits) != 3 {
		t.Fatalf("append splits: %v %v", splits, err)
	}

	res, found, err = m.Once(z, Comp("length", list, z))
	if err != nil || !found || res != Number(3) {
		t.Fatalf("length: %v", res)
	}
	res, found, err = m.Once(z, Comp("length", z, Number(2)))
	if err != nil || !found {
		t.Fatalf("length gen: %v %v", found, err)
	}
	if items, ok := ListSlice(res); !ok || len(items) != 2 {
		t.Fatalf("length gen list: %v", res)
	}

	sols, err = m.FindAll(x, Comp("between", Number(1), Number(4), x))
	if err != nil || len(sols) != 4 {
		t.Fatalf("between: %v %v", sols, err)
	}

	res, found, err = m.Once(z, Comp("nth0", Number(1), list, z))
	if err != nil || !found || res != Atom("b") {
		t.Fatalf("nth0: %v", res)
	}
	// nth0 enumeration mode.
	idx := NewVar("I")
	sols, err = m.FindAll(idx, Comp("nth0", idx, list, NewVar("E")))
	if err != nil || len(sols) != 3 {
		t.Fatalf("nth0 enum: %v %v", sols, err)
	}

	res, found, err = m.Once(z, Comp("sort", MkList(Number(3), Number(1), Number(3), Number(2)), z))
	if err != nil || !found || res.String() != "[1,2,3]" {
		t.Fatalf("sort: %v", res)
	}
}

func TestNegationAsFailure(t *testing.T) {
	m := machineWith(t, &Clause{Head: Comp("p", Atom("a"))})
	ok, err := m.Query(Comp("\\+", Comp("p", Atom("b"))))
	if err != nil || !ok {
		t.Fatalf("negation of absent fact: %v %v", ok, err)
	}
	ok, err = m.Query(Comp("not", Comp("p", Atom("a"))))
	if err != nil || ok {
		t.Fatalf("negation of present fact: %v %v", ok, err)
	}
}

func TestDisjunctionAndConjunction(t *testing.T) {
	m := machineWith(t, &Clause{Head: Comp("p", Atom("a"))}, &Clause{Head: Comp("q", Atom("b"))})
	x := NewVar("X")
	sols, err := m.FindAll(x, Comp(";", Comp("p", x), Comp("q", x)))
	if err != nil || len(sols) != 2 {
		t.Fatalf("disjunction: %v %v", sols, err)
	}
	ok, err := m.Query(Comp(",", Comp("p", Atom("a")), Comp("q", Atom("b"))))
	if err != nil || !ok {
		t.Fatalf("conjunction: %v %v", ok, err)
	}
}

func TestCutPrunesChoicePoints(t *testing.T) {
	// first(X) :- p(X), !.
	x := NewVar("X")
	m := machineWith(t,
		&Clause{Head: Comp("p", Atom("a"))},
		&Clause{Head: Comp("p", Atom("b"))},
		&Clause{Head: Comp("first", x), Body: []Term{Comp("p", x), Atom("!")}},
	)
	y := NewVar("Y")
	sols, err := m.FindAll(y, Comp("first", y))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0] != Atom("a") {
		t.Fatalf("cut failed to prune: %v", sols)
	}
}

func TestCutIsLocalToClause(t *testing.T) {
	// q :- p(X), !. ; r has two solutions independent of q's cut.
	x := NewVar("X")
	m := machineWith(t,
		&Clause{Head: Comp("p", Atom("a"))},
		&Clause{Head: Comp("p", Atom("b"))},
		&Clause{Head: Atom("q"), Body: []Term{Comp("p", x), Atom("!")}},
		&Clause{Head: Comp("r", Atom("one"))},
		&Clause{Head: Comp("r", Atom("two"))},
	)
	y := NewVar("Y")
	sols, err := m.FindAll(y, Comp(",", Atom("q"), Comp("r", y)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("cut leaked outside clause: %v", sols)
	}
}

func TestTypeChecks(t *testing.T) {
	m := NewMachine()
	checks := []struct {
		goal Term
		want bool
	}{
		{Comp("number", Number(3)), true},
		{Comp("number", Atom("a")), false},
		{Comp("atom", Atom("a")), true},
		{Comp("var", NewVar("V")), true},
		{Comp("nonvar", Number(1)), true},
		{Comp("ground", Comp("f", Atom("a"))), true},
		{Comp("ground", Comp("f", NewVar("V"))), false},
	}
	for _, c := range checks {
		ok, err := m.Query(c.goal)
		if err != nil {
			t.Fatalf("%s: %v", c.goal, err)
		}
		if ok != c.want {
			t.Errorf("%s = %v, want %v", c.goal, ok, c.want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	// loop :- loop.
	m := machineWith(t, &Clause{Head: Atom("loop"), Body: []Term{Atom("loop")}})
	m.MaxSteps = 1000
	_, err := m.Query(Atom("loop"))
	if err != ErrStepLimit {
		t.Fatalf("want step limit error, got %v", err)
	}
}

func TestUnknownPredicateErrors(t *testing.T) {
	m := NewMachine()
	if _, err := m.Query(Comp("nosuch", Atom("a"))); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}

func TestCannotRedefineBuiltin(t *testing.T) {
	m := NewMachine()
	if err := m.AssertFact(Comp("is", Number(1), Number(1))); err == nil {
		t.Fatal("builtin redefinition accepted")
	}
}

func TestRecursivePathAnswers(t *testing.T) {
	// Diamond path enumeration: every path is one answer carrying its cost.
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	tp, t1, tv := NewVar("Tp"), NewVar("T1"), NewVar("T")
	m := machineWith(t,
		&Clause{Head: Comp("edge", Atom("a"), Atom("b"))},
		&Clause{Head: Comp("edge", Atom("b"), Atom("c"))},
		&Clause{Head: Comp("edge", Atom("a"), Atom("c"))},
		&Clause{Head: Comp("w", Atom("a"), Number(1))},
		&Clause{Head: Comp("w", Atom("b"), Number(2))},
		&Clause{Head: Comp("w", Atom("c"), Number(0))},
		// path(X,Y,Tp) :- edge(X,Y), w(X,T), Tp is T.
		&Clause{Head: Comp("path", x, y, tp), Body: []Term{
			Comp("edge", x, y), Comp("w", x, tv), Comp("is", tp, tv)}},
		// path(X,Y,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,T1), w(X,T), Tp is T+T1.
		&Clause{Head: Comp("path", x, y, tp), Body: []Term{
			Comp("edge", x, z), Comp("\\==", z, y), Comp("path", z, y, t1),
			Comp("w", x, tv), Comp("is", tp, Comp("+", tv, t1))}},
	)
	v := NewVar("V")
	sols, err := m.FindAll(v, Comp("path", Atom("a"), Atom("c"), v))
	if err != nil {
		t.Fatal(err)
	}
	got := SortUnique(sols)
	// Paths a->c: direct (w(a)=1) and via b (1+2=3).
	if len(got) != 2 || got[0] != Number(1) || got[1] != Number(3) {
		t.Fatalf("path answers %v", got)
	}
}

func TestCloneIsolation(t *testing.T) {
	m := machineWith(t, &Clause{Head: Comp("p", Atom("a"))})
	c := m.Clone()
	if err := c.AssertFact(Comp("p", Atom("b"))); err != nil {
		t.Fatal(err)
	}
	sols, _ := m.FindAll(NewVar("X"), Comp("p", NewVar("X")))
	if len(sols) != 1 {
		t.Fatalf("clone mutated original: %v", sols)
	}
	sols, _ = c.FindAll(NewVar("X"), Comp("p", NewVar("X")))
	if len(sols) != 2 {
		t.Fatalf("clone missing fact: %v", sols)
	}
}

func TestListHelpers(t *testing.T) {
	l := MkList(Number(1), Number(2))
	if l.String() != "[1,2]" {
		t.Errorf("list string %s", l.String())
	}
	items, ok := ListSlice(l)
	if !ok || len(items) != 2 {
		t.Errorf("ListSlice: %v %v", items, ok)
	}
	// Improper list.
	improper := Cons(Number(1), Number(2))
	if _, ok := ListSlice(improper); ok {
		t.Error("improper list accepted")
	}
	if !strings.Contains(improper.String(), "|") {
		t.Errorf("improper list rendering %s", improper.String())
	}
	if MkList().String() != "[]" {
		t.Error("empty list rendering")
	}
}

func TestCompareOrder(t *testing.T) {
	// Var < Number < Atom < Compound.
	v := NewVar("V")
	terms := []Term{Comp("f", Atom("a")), Atom("z"), Number(1), v}
	sorted := SortUnique(terms)
	if _, isVar := sorted[0].(*Var); !isVar {
		t.Errorf("order wrong: %v", sorted)
	}
	if _, isNum := sorted[1].(Number); !isNum {
		t.Errorf("order wrong: %v", sorted)
	}
	// Compound ordering by arity then functor then args.
	if Compare(Comp("f", Number(1)), Comp("f", Number(2))) >= 0 {
		t.Error("arg order wrong")
	}
	if Compare(Comp("a", Number(1), Number(1)), Comp("z", Number(1))) <= 0 {
		t.Error("arity should dominate functor")
	}
}

func TestIndicatorOf(t *testing.T) {
	ind, err := IndicatorOf(Comp("f", Number(1), Number(2)))
	if err != nil || ind.Functor != "f" || ind.Arity != 2 {
		t.Fatalf("indicator %v %v", ind, err)
	}
	ind, err = IndicatorOf(Atom("q"))
	if err != nil || ind.Arity != 0 {
		t.Fatalf("atom indicator %v %v", ind, err)
	}
	if _, err := IndicatorOf(Number(3)); err == nil {
		t.Fatal("number indicator accepted")
	}
	if ind.String() != "q/0" {
		t.Errorf("indicator string %s", ind.String())
	}
}

func TestSnapshotIndependence(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	term := Comp("f", x)
	m.Unify(x, Atom("bound"))
	snap := Snapshot(term)
	m.undo(0)
	if snap.String() != "f(bound)" {
		t.Errorf("snapshot lost binding: %s", snap)
	}
}

func TestUnifyAndIdenticalBuiltins(t *testing.T) {
	m := NewMachine()
	x := NewVar("X")
	res, found, err := m.Once(x, Comp("=", x, Atom("hello")))
	if err != nil || !found || res != Atom("hello") {
		t.Fatalf("=/2: %v %v %v", res, found, err)
	}
	ok, err := m.Query(Comp("=", Atom("a"), Atom("b")))
	if err != nil || ok {
		t.Fatal("distinct atoms unified via =/2")
	}
	ok, err = m.Query(Comp("==", Atom("a"), Atom("a")))
	if err != nil || !ok {
		t.Fatal("==/2 failed on identical atoms")
	}
	// ==/2 does not unify: an unbound var is not identical to an atom.
	ok, err = m.Query(Comp("==", NewVar("U"), Atom("a")))
	if err != nil || ok {
		t.Fatal("==/2 unified an unbound variable")
	}
	ok, err = m.Query(Comp("\\==", Number(1), Number(2)))
	if err != nil || !ok {
		t.Fatal("\\==/2 failed on distinct numbers")
	}
}

func TestSolveEnumeratesAndStops(t *testing.T) {
	m := machineWith(t,
		&Clause{Head: Comp("p", Number(1))},
		&Clause{Head: Comp("p", Number(2))},
		&Clause{Head: Comp("p", Number(3))},
	)
	x := NewVar("X")
	var seen []Term
	err := m.Solve([]Term{Comp("p", x)}, func() bool {
		seen = append(seen, Snapshot(x))
		return len(seen) < 2 // stop after two solutions
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("solutions %v", seen)
	}
}

func TestRetractAllAndDefined(t *testing.T) {
	m := machineWith(t, &Clause{Head: Comp("p", Atom("a"))})
	ind := Indicator{Functor: "p", Arity: 1}
	if !m.Defined(ind) {
		t.Fatal("p/1 should be defined")
	}
	m.RetractAll(ind)
	if m.Defined(ind) {
		t.Fatal("p/1 still defined after RetractAll")
	}
	if _, err := m.Query(Comp("p", Atom("a"))); err == nil {
		t.Fatal("retracted predicate should be unknown")
	}
}

func TestCutErrorString(t *testing.T) {
	e := cutErr{depth: 3}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestBuiltinErrorPaths(t *testing.T) {
	m := NewMachine()
	improper := Cons(Number(1), Number(2))
	cases := []Term{
		Comp("sum", improper, NewVar("S")),
		Comp("max", improper, NewVar("M")),
		Comp("member", NewVar("X"), improper),
		Comp("append", NewVar("A"), NewVar("B"), improper),
		Comp("nth0", Number(0), improper, NewVar("E")),
		Comp("sort", improper, NewVar("S")),
		Comp("length", NewVar("L"), Atom("three")),
		Comp("sum", MkList(Atom("notanumber")), NewVar("S")),
		Comp("max", MkList(Comp("f", Number(1))), NewVar("M")),
		Comp("between", Atom("a"), Number(3), NewVar("X")),
	}
	for _, goal := range cases {
		if _, err := m.Query(goal); err == nil {
			t.Errorf("%s: expected error", goal)
		}
	}
}

func TestLengthNegativeOrFractionalFails(t *testing.T) {
	m := NewMachine()
	ok, err := m.Query(Comp("length", NewVar("L"), Number(-1)))
	if err != nil || ok {
		t.Fatal("negative length should fail cleanly")
	}
	ok, err = m.Query(Comp("length", NewVar("L"), Number(2.5)))
	if err != nil || ok {
		t.Fatal("fractional length should fail cleanly")
	}
}

func TestNth0OutOfRangeFails(t *testing.T) {
	m := NewMachine()
	list := MkList(Atom("a"))
	ok, err := m.Query(Comp("nth0", Number(5), list, NewVar("E")))
	if err != nil || ok {
		t.Fatal("out-of-range nth0 should fail")
	}
	ok, err = m.Query(Comp("nth0", Number(-1), list, NewVar("E")))
	if err != nil || ok {
		t.Fatal("negative nth0 should fail")
	}
}

func TestAtomGoalControl(t *testing.T) {
	m := machineWith(t, &Clause{Head: Comp("p", Atom("a"))})
	ok, err := m.Query(Comp(",", Atom("true"), Comp("p", Atom("a"))))
	if err != nil || !ok {
		t.Fatal("true conjunction failed")
	}
	ok, err = m.Query(Comp(",", Atom("fail"), Comp("p", Atom("a"))))
	if err != nil || ok {
		t.Fatal("fail conjunction succeeded")
	}
	// Unbound and numeric goals error.
	if _, err := m.Query(NewVar("G")); err == nil {
		t.Fatal("unbound goal accepted")
	}
	if _, err := m.Query(Comp(",", Number(3), Atom("true"))); err == nil {
		t.Fatal("numeric goal accepted")
	}
}

func TestFindAllWithBuiltinsInsideBodies(t *testing.T) {
	// Rules whose bodies mix builtins and user predicates, exercised through
	// findall: the shape of Example 1's cost rule.
	tid, vid, c, up, tv, con := NewVar("Tid"), NewVar("Vid"), NewVar("C"), NewVar("Up"), NewVar("T"), NewVar("Con")
	m := machineWith(t,
		&Clause{Head: Comp("price", Atom("v0"), Number(2))},
		&Clause{Head: Comp("price", Atom("v1"), Number(5))},
		&Clause{Head: Comp("exetime", Atom("t1"), Atom("v0"), Number(10))},
		&Clause{Head: Comp("exetime", Atom("t1"), Atom("v1"), Number(4))},
		&Clause{Head: Comp("configs", Atom("t1"), Atom("v0"), Number(0))},
		&Clause{Head: Comp("configs", Atom("t1"), Atom("v1"), Number(1))},
		&Clause{Head: Comp("cost", tid, vid, c), Body: []Term{
			Comp("price", vid, up),
			Comp("exetime", tid, vid, tv),
			Comp("configs", tid, vid, con),
			Comp("is", c, Comp("*", Comp("*", tv, up), con)),
		}},
	)
	bag := NewVar("Bag")
	total := NewVar("Total")
	c2 := NewVar("C2")
	goal := Comp(",",
		Comp("findall", c2, Comp("cost", NewVar("T2"), NewVar("V2"), c2), bag),
		Comp("sum", bag, total))
	res, found, err := m.Once(total, goal)
	if err != nil || !found {
		t.Fatalf("cost query: %v %v", found, err)
	}
	// v0: 10*2*0 = 0; v1: 4*5*1 = 20.
	if res != Number(20) {
		t.Fatalf("total cost %v, want 20", res)
	}
}

// Property: unify-then-undo restores every variable, for random term pairs.
func TestUnifyUndoProperty(t *testing.T) {
	// Build random terms over a small vocabulary with shared variables.
	var build func(r *rand.Rand, vars []*Var, depth int) Term
	build = func(r *rand.Rand, vars []*Var, depth int) Term {
		switch c := r.Intn(4); {
		case c == 0 && depth > 0:
			args := make([]Term, r.Intn(3)+1)
			for i := range args {
				args[i] = build(r, vars, depth-1)
			}
			return Comp([]string{"f", "g"}[r.Intn(2)], args...)
		case c == 1:
			return vars[r.Intn(len(vars))]
		case c == 2:
			return Number(float64(r.Intn(5)))
		default:
			return Atom([]string{"a", "b"}[r.Intn(2)])
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vars := []*Var{NewVar("A"), NewVar("B"), NewVar("C")}
		t1 := build(r, vars, 3)
		t2 := build(r, vars, 3)
		m := NewMachine()
		mark := m.mark()
		m.Unify(t1, t2)
		m.undo(mark)
		for _, v := range vars {
			if v.Ref != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: if unification succeeds, both terms snapshot identically.
func TestUnifyMakesEqualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMachine()
		x, y := NewVar("X"), NewVar("Y")
		t1 := Comp("f", x, Number(float64(r.Intn(3))), y)
		t2 := Comp("f", Atom("a"), Number(float64(r.Intn(3))), Comp("g", x))
		mark := m.mark()
		ok := m.Unify(t1, t2)
		equal := true
		if ok {
			equal = Compare(t1, t2) == 0
		}
		m.undo(mark)
		return !ok || equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
