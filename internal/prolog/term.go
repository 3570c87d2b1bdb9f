// Package prolog implements the logic-programming engine WLog extends: terms,
// unification, a SLD-resolution solver with backtracking and cut, the
// built-in predicates the paper's example programs rely on (is, findall,
// setof, sum, max, member, ...).
// WLog programs are translated to this engine's clause database; the
// probabilistic IR (package probir) evaluates queries against it per sampled
// world.
package prolog

import (
	"fmt"
	"sort"
	"strings"
)

// Term is a Prolog term: Atom, Number, *Var or *Compound.
type Term interface {
	isTerm()
	String() string
}

// Atom is a constant symbol (lower-case initial by convention).
type Atom string

func (Atom) isTerm() {}

// String implements fmt.Stringer.
func (a Atom) String() string { return string(a) }

// Number is a numeric constant. WLog models times, costs and probabilities,
// so a single float64 numeric type suffices.
type Number float64

func (Number) isTerm() {}

// String implements fmt.Stringer.
func (n Number) String() string {
	return strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.6f", float64(n)), "000000"), ".")
}

// Var is a logic variable. Ref is nil while unbound; binding assigns Ref and
// is undone on backtracking via the trail.
type Var struct {
	Name string
	Ref  Term
}

func (*Var) isTerm() {}

// String implements fmt.Stringer.
func (v *Var) String() string {
	if v.Ref != nil {
		return v.Ref.String()
	}
	if v.Name == "" {
		return fmt.Sprintf("_G%p", v)
	}
	return v.Name
}

// NewVar returns a fresh unbound variable with the given display name.
func NewVar(name string) *Var { return &Var{Name: name} }

// Compound is a functor with arguments, e.g. exetime(t1, v0, T).
type Compound struct {
	Functor string
	Args    []Term
}

func (*Compound) isTerm() {}

// String implements fmt.Stringer.
func (c *Compound) String() string {
	if c.Functor == "." && len(c.Args) == 2 {
		// Render lists in bracket notation.
		var items []string
		var t Term = c
		for {
			cc, ok := t.(*Compound)
			if !ok || cc.Functor != "." || len(cc.Args) != 2 {
				break
			}
			items = append(items, deref(cc.Args[0]).String())
			t = deref(cc.Args[1])
		}
		if a, ok := t.(Atom); ok && a == "[]" {
			return "[" + strings.Join(items, ",") + "]"
		}
		return "[" + strings.Join(items, ",") + "|" + t.String() + "]"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = deref(a).String()
	}
	return fmt.Sprintf("%s(%s)", c.Functor, strings.Join(parts, ","))
}

// Comp builds a compound term.
func Comp(functor string, args ...Term) *Compound {
	return &Compound{Functor: functor, Args: args}
}

// EmptyList is the empty-list atom.
const EmptyList = Atom("[]")

// Cons builds the list cell [head|tail].
func Cons(head, tail Term) *Compound { return Comp(".", head, tail) }

// MkList builds a proper list from items.
func MkList(items ...Term) Term {
	var t Term = EmptyList
	for i := len(items) - 1; i >= 0; i-- {
		t = Cons(items[i], t)
	}
	return t
}

// ListSlice converts a proper list term to a Go slice. It reports
// ok=false for improper or non-list terms.
func ListSlice(t Term) (items []Term, ok bool) {
	t = deref(t)
	for {
		if a, isAtom := t.(Atom); isAtom && a == "[]" {
			return items, true
		}
		c, isComp := t.(*Compound)
		if !isComp || c.Functor != "." || len(c.Args) != 2 {
			return nil, false
		}
		items = append(items, deref(c.Args[0]))
		t = deref(c.Args[1])
	}
}

// Indicator identifies a predicate by functor and arity, e.g. path/4.
type Indicator struct {
	Functor string
	Arity   int
}

// String implements fmt.Stringer.
func (i Indicator) String() string { return fmt.Sprintf("%s/%d", i.Functor, i.Arity) }

// IndicatorOf returns the predicate indicator of a callable term.
func IndicatorOf(t Term) (Indicator, error) {
	switch tt := deref(t).(type) {
	case Atom:
		return Indicator{Functor: string(tt), Arity: 0}, nil
	case *Compound:
		return Indicator{Functor: tt.Functor, Arity: len(tt.Args)}, nil
	default:
		return Indicator{}, fmt.Errorf("prolog: term %s is not callable", t)
	}
}

// Clause is one rule: Head :- Body. A fact has an empty Body.
type Clause struct {
	Head Term
	Body []Term
}

// renameClause copies a clause with fresh variables, preserving sharing.
func renameClause(c *Clause) *Clause {
	seen := map[*Var]*Var{}
	nc := &Clause{Head: renameTerm(c.Head, seen)}
	nc.Body = make([]Term, len(c.Body))
	for i, b := range c.Body {
		nc.Body[i] = renameTerm(b, seen)
	}
	return nc
}

func renameTerm(t Term, seen map[*Var]*Var) Term {
	switch tt := t.(type) {
	case Atom, Number:
		return tt
	case *Var:
		if tt.Ref != nil {
			return renameTerm(tt.Ref, seen)
		}
		if nv, ok := seen[tt]; ok {
			return nv
		}
		nv := NewVar(tt.Name)
		seen[tt] = nv
		return nv
	case *Compound:
		args := make([]Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = renameTerm(a, seen)
		}
		return &Compound{Functor: tt.Functor, Args: args}
	default:
		panic(fmt.Sprintf("prolog: unknown term type %T", t))
	}
}

// Snapshot returns a copy of t with all bound variables replaced by their
// values and unbound variables preserved as fresh markers. Use it to keep a
// solution after backtracking undoes bindings.
func Snapshot(t Term) Term {
	return renameTerm(t, map[*Var]*Var{})
}

// deref follows variable bindings to the representative term.
func deref(t Term) Term {
	for {
		v, ok := t.(*Var)
		if !ok || v.Ref == nil {
			return t
		}
		t = v.Ref
	}
}

// Deref is the exported variant of deref.
func Deref(t Term) Term { return deref(t) }

// Ground reports whether t contains no unbound variables.
func Ground(t Term) bool {
	switch tt := deref(t).(type) {
	case Atom, Number:
		return true
	case *Var:
		return false
	case *Compound:
		for _, a := range tt.Args {
			if !Ground(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare imposes the standard order of terms: Number < Atom < Compound
// (by arity, then functor, then args); unbound Vars sort first by identity.
func Compare(a, b Term) int {
	a, b = deref(a), deref(b)
	oa, ob := termOrder(a), termOrder(b)
	if oa != ob {
		return oa - ob
	}
	switch ta := a.(type) {
	case *Var:
		tb := b.(*Var)
		if ta == tb {
			return 0
		}
		return strings.Compare(fmt.Sprintf("%p", ta), fmt.Sprintf("%p", tb))
	case Number:
		tb := b.(Number)
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return 0
	case Atom:
		return strings.Compare(string(ta), string(b.(Atom)))
	case *Compound:
		tb := b.(*Compound)
		if d := len(ta.Args) - len(tb.Args); d != 0 {
			return d
		}
		if d := strings.Compare(ta.Functor, tb.Functor); d != 0 {
			return d
		}
		for i := range ta.Args {
			if d := Compare(ta.Args[i], tb.Args[i]); d != 0 {
				return d
			}
		}
		return 0
	}
	return 0
}

func termOrder(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Number:
		return 1
	case Atom:
		return 2
	case *Compound:
		return 3
	}
	return 4
}

// SortUnique sorts terms in the standard order and removes duplicates, as
// setof/3 requires.
func SortUnique(ts []Term) []Term {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || Compare(out[len(out)-1], t) != 0 {
			out = append(out, t)
		}
	}
	return out
}
