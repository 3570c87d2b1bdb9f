package prolog

import (
	"fmt"
)

// Machine is a Prolog engine: a clause database plus solver state (binding
// trail, step budget). The unification technique follows the classic
// structure-sharing interpreter: binding a variable pushes it on the trail;
// backtracking pops the trail to undo bindings.
type Machine struct {
	db    map[Indicator][]*Clause
	order []Indicator // insertion order, for deterministic listings
	trail []*Var

	// Steps counts solver resolutions; MaxSteps bounds runaway queries
	// (0 = unlimited).
	Steps    int
	MaxSteps int
}

// NewMachine returns an empty engine.
func NewMachine() *Machine {
	return &Machine{db: map[Indicator][]*Clause{}}
}

// Assert appends a clause to the database.
func (m *Machine) Assert(c *Clause) error {
	ind, err := IndicatorOf(c.Head)
	if err != nil {
		return err
	}
	if _, ok := builtins[ind]; ok {
		return fmt.Errorf("prolog: cannot redefine builtin %s", ind)
	}
	if _, ok := m.db[ind]; !ok {
		m.order = append(m.order, ind)
	}
	m.db[ind] = append(m.db[ind], c)
	return nil
}

// AssertFact appends a bodyless clause.
func (m *Machine) AssertFact(head Term) error {
	return m.Assert(&Clause{Head: head})
}

// RetractAll removes every clause of the given predicate.
func (m *Machine) RetractAll(ind Indicator) { delete(m.db, ind) }

// Defined reports whether the predicate has clauses.
func (m *Machine) Defined(ind Indicator) bool { return len(m.db[ind]) > 0 }

// Clone returns a machine sharing no mutable state with m, with the same
// clauses. Clause structures are reused — they are
// immutable; the solver renames them before use.
func (m *Machine) Clone() *Machine {
	nm := NewMachine()
	nm.MaxSteps = m.MaxSteps
	for _, ind := range m.order {
		nm.order = append(nm.order, ind)
		nm.db[ind] = append([]*Clause(nil), m.db[ind]...)
	}
	return nm
}

// bind assigns v := t and records the binding on the trail.
func (m *Machine) bind(v *Var, t Term) {
	v.Ref = t
	m.trail = append(m.trail, v)
}

// mark returns the current trail position.
func (m *Machine) mark() int { return len(m.trail) }

// undo unbinds variables bound after the mark.
func (m *Machine) undo(mark int) {
	for i := len(m.trail) - 1; i >= mark; i-- {
		m.trail[i].Ref = nil
	}
	m.trail = m.trail[:mark]
}

// Unify attempts to unify a and b, binding variables as needed. On failure
// partial bindings remain; the solver always brackets calls with mark/undo.
func (m *Machine) Unify(a, b Term) bool {
	a, b = deref(a), deref(b)
	if a == b {
		return true
	}
	if av, ok := a.(*Var); ok {
		m.bind(av, b)
		return true
	}
	if bv, ok := b.(*Var); ok {
		m.bind(bv, a)
		return true
	}
	switch at := a.(type) {
	case Atom:
		bt, ok := b.(Atom)
		return ok && at == bt
	case Number:
		bt, ok := b.(Number)
		return ok && at == bt
	case *Compound:
		bt, ok := b.(*Compound)
		if !ok || at.Functor != bt.Functor || len(at.Args) != len(bt.Args) {
			return false
		}
		for i := range at.Args {
			if !m.Unify(at.Args[i], bt.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// ErrStepLimit reports that the solver exhausted its step budget.
var ErrStepLimit = fmt.Errorf("prolog: step limit exceeded")

// errStop is the internal sentinel: the caller asked to stop enumeration.
var errStop = fmt.Errorf("prolog: stop enumeration")

// cutErr unwinds the solver to the clause choice point at the given depth.
type cutErr struct{ depth int }

func (c cutErr) Error() string { return fmt.Sprintf("prolog: cut to depth %d", c.depth) }

// Solve enumerates solutions of the conjunction goals. For each solution it
// calls yield; if yield returns false the search stops. Solve returns an
// error only for malformed programs or the step limit.
func (m *Machine) Solve(goals []Term, yield func() bool) error {
	k := func() error {
		if !yield() {
			return errStop
		}
		return nil
	}
	err := m.solveAll(goals, 0, k)
	if err == errStop {
		return nil
	}
	if _, isCut := err.(cutErr); isCut {
		return nil // top-level cut: enumeration simply ends
	}
	return err
}

// solveAll proves goals left to right, calling k on success. depth tracks
// clause nesting for cut.
func (m *Machine) solveAll(goals []Term, depth int, k func() error) error {
	if len(goals) == 0 {
		return k()
	}
	goal := deref(goals[0])
	rest := goals[1:]

	m.Steps++
	if m.MaxSteps > 0 && m.Steps > m.MaxSteps {
		return ErrStepLimit
	}

	switch g := goal.(type) {
	case *Var:
		return fmt.Errorf("prolog: unbound goal variable %s", g)
	case Number:
		return fmt.Errorf("prolog: number %v is not callable", g)
	case Atom:
		switch g {
		case "true":
			return m.solveAll(rest, depth, k)
		case "fail", "false":
			return nil
		case "!":
			if err := m.solveAll(rest, depth, k); err != nil {
				return err
			}
			return cutErr{depth: depth}
		}
	case *Compound:
		switch g.Functor {
		case ",":
			if len(g.Args) == 2 {
				return m.solveAll(append([]Term{g.Args[0], g.Args[1]}, rest...), depth, k)
			}
		case ";":
			if len(g.Args) == 2 {
				if err := m.solveAll(append([]Term{g.Args[0]}, rest...), depth, k); err != nil {
					return err
				}
				return m.solveAll(append([]Term{g.Args[1]}, rest...), depth, k)
			}
		case "\\+", "not":
			if len(g.Args) == 1 {
				found, err := m.provable(g.Args[0], depth)
				if err != nil {
					return err
				}
				if found {
					return nil
				}
				return m.solveAll(rest, depth, k)
			}
		}
	}

	ind, err := IndicatorOf(goal)
	if err != nil {
		return err
	}
	if bi, ok := builtins[ind]; ok {
		args := callArgs(goal)
		return bi(m, args, depth, func() error { return m.solveAll(rest, depth, k) })
	}

	clauses, ok := m.db[ind]
	if !ok {
		return fmt.Errorf("prolog: unknown predicate %s", ind)
	}

	myDepth := depth + 1
	for _, c := range clauses {
		rc := renameClause(c)
		mark := m.mark()
		if m.Unify(goal, rc.Head) {
			err := m.solveAll(append(append([]Term{}, rc.Body...), rest...), myDepth, k)
			if err != nil {
				m.undo(mark)
				if ce, isCut := err.(cutErr); isCut && ce.depth == myDepth {
					return nil // cut prunes the remaining clauses
				}
				return err
			}
		}
		m.undo(mark)
	}
	return nil
}

// callArgs returns the argument list of a callable term (empty for atoms).
func callArgs(t Term) []Term {
	if c, ok := deref(t).(*Compound); ok {
		return c.Args
	}
	return nil
}

// provable checks whether goal has at least one solution, restoring all
// bindings afterwards. Cuts inside the goal are local to it.
func (m *Machine) provable(goal Term, depth int) (bool, error) {
	found := false
	mark := m.mark()
	err := m.solveAll([]Term{goal}, depth+1, func() error {
		found = true
		return errStop
	})
	m.undo(mark)
	if err == errStop {
		err = nil
	}
	if _, isCut := err.(cutErr); isCut {
		err = nil
	}
	return found, err
}

// collect enumerates solutions of goal, snapshotting template for each.
// Bindings are restored afterwards; cuts inside the goal are local.
func (m *Machine) collect(template, goal Term, depth int) ([]Term, error) {
	var out []Term
	mark := m.mark()
	err := m.solveAll([]Term{goal}, depth+1, func() error {
		out = append(out, Snapshot(template))
		return nil
	})
	m.undo(mark)
	if _, isCut := err.(cutErr); isCut {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Query proves the single goal and reports whether a solution exists.
func (m *Machine) Query(goal Term) (bool, error) {
	return m.provable(goal, 0)
}

// FindAll returns a snapshot of template for every solution of goal.
func (m *Machine) FindAll(template, goal Term) ([]Term, error) {
	return m.collect(template, goal, 0)
}

// Once proves goal and returns the snapshot of template from the first
// solution (found=false if none). Template and goal are renamed together on
// entry, so the proof binds private copies and never the caller's terms:
// machines may prove one shared query concurrently.
func (m *Machine) Once(template, goal Term) (Term, bool, error) {
	seen := map[*Var]*Var{}
	template, goal = renameTerm(template, seen), renameTerm(goal, seen)
	var result Term
	found := false
	mark := m.mark()
	err := m.solveAll([]Term{goal}, 1, func() error {
		result = Snapshot(template)
		found = true
		return errStop
	})
	m.undo(mark)
	if err == errStop {
		err = nil
	}
	if _, isCut := err.(cutErr); isCut {
		err = nil
	}
	return result, found, err
}
