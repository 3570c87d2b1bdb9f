package probir

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"deco/internal/dag"
	"deco/internal/dist"
	"deco/internal/estimate"
	"deco/internal/prolog"
	"deco/internal/wlog"
)

// Prolog is the general evaluator: it interprets the WLog program's own
// rules with the Prolog machine, per world. It is the path taken when a
// program defines its own goal/constraint predicates instead of relying on
// the engine-native constructs; it is exact but much slower, so Deco uses it
// for small problems and as the differential oracle of the native
// evaluator. World p reads its exetime facts from position p of the CRN
// rows of a Native built over the same workflow, table and prices, so an
// interpreted query and a native kernel see the same realizations.
//
// Database layout per world (the probabilistic IR realization):
//
//	task(tid).                     one per workflow task
//	vm(vid).                       one per catalog type (vid = v0..vK-1)
//	edge(root,X), edge(X,tail)     virtual source/sink as in Example 1
//	edge(X,Y).                     workflow structure
//	price(vid, $/second).
//	exetime(tid, vid, seconds).    world p of the CRN duration rows
//	exetime(root, vid, 0). exetime(tail, vid, 0).
//	configs(tid, vid, 0|1).        the state being evaluated
//	configs(root, vid, 1). configs(tail, vid, 1).
type Prolog struct {
	Program *wlog.Program

	native *Native         // the CRN rows, shape and iteration count
	base   *prolog.Machine // static part: rules + structure facts
}

// typeAtom names catalog type j in the fact database.
func typeAtom(j int) prolog.Atom { return prolog.Atom(fmt.Sprintf("v%d", j)) }

// taskAtom names a task in the fact database. DAX IDs are already atoms-safe
// lowercase in our generators; quote-insensitive Atom covers the rest.
func taskAtom(id string) prolog.Atom { return prolog.Atom(id) }

// NewProlog builds the general evaluator for the given program over iters
// worlds.
func NewProlog(w *dag.Workflow, tbl *estimate.Table, prices []float64, prog *wlog.Program, iters int) (*Prolog, error) {
	if prog.Goal == nil {
		return nil, fmt.Errorf("probir: program has no optimization goal")
	}
	n, err := NewNative(w, tbl, prices, GoalCost, nil, iters)
	if err != nil {
		return nil, err
	}
	p := &Prolog{Program: prog, native: n}
	m := prolog.NewMachine()
	for _, r := range prog.Rules {
		if err := m.Assert(r); err != nil {
			return nil, err
		}
	}
	// Structure facts.
	for _, t := range w.Tasks {
		if err := m.AssertFact(prolog.Comp("task", taskAtom(t.ID))); err != nil {
			return nil, err
		}
	}
	for j := range tbl.Types {
		if err := m.AssertFact(prolog.Comp("vm", typeAtom(j))); err != nil {
			return nil, err
		}
		perSec := prices[j] / 3600
		if err := m.AssertFact(prolog.Comp("price", typeAtom(j), prolog.Number(perSec))); err != nil {
			return nil, err
		}
	}
	for _, e := range w.Edges() {
		if err := m.AssertFact(prolog.Comp("edge", taskAtom(e[0]), taskAtom(e[1]))); err != nil {
			return nil, err
		}
	}
	// Virtual root and tail (Example 1: "we add task root and tail as two
	// virtual tasks to represent the start and end of the workflow").
	for _, r := range w.Roots() {
		if err := m.AssertFact(prolog.Comp("edge", prolog.Atom("root"), taskAtom(r))); err != nil {
			return nil, err
		}
	}
	for _, l := range w.Leaves() {
		if err := m.AssertFact(prolog.Comp("edge", taskAtom(l), prolog.Atom("tail"))); err != nil {
			return nil, err
		}
	}
	p.base = m
	return p, nil
}

// NumTypes implements Evaluator.
func (p *Prolog) NumTypes() int { return p.native.NumTypes() }

var (
	exetimeInd = prolog.Indicator{Functor: "exetime", Arity: 3}
	configsInd = prolog.Indicator{Functor: "configs", Arity: 3}
)

// queryNumber proves query once and evaluates v.
func queryNumber(m *prolog.Machine, v, query prolog.Term) (float64, error) {
	res, found, err := m.Once(v, query)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("probir: query %s has no solution", query)
	}
	n, ok := prolog.Deref(res).(prolog.Number)
	if !ok {
		return 0, fmt.Errorf("probir: query %s bound %s, not a number", query, res)
	}
	return float64(n), nil
}

// Fingerprint implements Evaluator: empty, since the interpreted rules are
// not hashed, so a Prolog search runs without the evaluation cache.
func (p *Prolog) Fingerprint() string { return "" }

// prologKernel interprets one world per thread. Figures: the goal value,
// then per constraint its queried value and a 0/1 satisfaction indicator.
type prologKernel struct {
	*prologBinding
	config []int
}

// prologBinding is one Bind's CRN rows and machine pool, shared by every
// kernel of the binding: each concurrent chunk checks a machine out,
// installs its worlds' facts, and returns it.
type prologBinding struct {
	p    *Prolog
	crn  *Program
	pool sync.Pool
}

// Bind implements Evaluator: the WLog interpreter of Algorithm 1 over the
// CRN rows of base — the rows a Native over the same workflow, table and
// prices samples — through the same world kernel contract the device path
// executes, so results are device- and schedule-independent. ctx cancels
// the rows' build.
func (p *Prolog) Bind(ctx context.Context, base int64) (Kernels, error) {
	crn, err := p.native.newProgram(ctx, base)
	if err != nil {
		return nil, err
	}
	b := &prologBinding{p: p, crn: crn}
	b.pool.New = func() any { return p.base.Clone() }
	return func(config []int) (WorldKernel, error) {
		if err := p.native.checkConfig(config); err != nil {
			return nil, err
		}
		return &prologKernel{prologBinding: b, config: config}, nil
	}, nil
}

// Worlds implements WorldKernel.
func (k *prologKernel) Worlds() int { return k.crn.iters }

// Width implements WorldKernel.
func (k *prologKernel) Width() int { return 1 + 2*len(k.p.Program.Constraints) }

// Sample implements WorldKernel: the chunk's worlds one at a time on one
// pooled machine.
func (k *prologKernel) Sample(lo, hi int, out []float64) error {
	m := k.pool.Get().(*prolog.Machine)
	defer k.pool.Put(m)
	width := k.Width()
	for it := lo; it < hi; it++ {
		r := it - lo
		if err := k.world(m, it, out[r*width:(r+1)*width]); err != nil {
			return err
		}
	}
	return nil
}

// assertWorld installs the config facts and world it's exetime facts into m.
func (k *prologKernel) assertWorld(m *prolog.Machine, it int) error {
	m.RetractAll(exetimeInd)
	m.RetractAll(configsInd)
	for i, id := range k.crn.flat.IDs {
		for j := range k.crn.nTypes {
			secs := k.crn.row(i, j)[it]
			if err := m.AssertFact(prolog.Comp("exetime", taskAtom(id), typeAtom(j), prolog.Number(secs))); err != nil {
				return err
			}
			con := 0
			if k.config[i] == j {
				con = 1
			}
			if err := m.AssertFact(prolog.Comp("configs", taskAtom(id), typeAtom(j), prolog.Number(con))); err != nil {
				return err
			}
		}
	}
	// Virtual root/tail run "for free" on every type.
	for _, v := range []prolog.Atom{"root", "tail"} {
		for j := range k.crn.nTypes {
			if err := m.AssertFact(prolog.Comp("exetime", v, typeAtom(j), prolog.Number(0))); err != nil {
				return err
			}
			if err := m.AssertFact(prolog.Comp("configs", v, typeAtom(j), prolog.Number(1))); err != nil {
				return err
			}
		}
	}
	return nil
}

// world interprets world it on machine m into out.
func (k *prologKernel) world(m *prolog.Machine, it int, out []float64) error {
	if err := k.assertWorld(m, it); err != nil {
		return err
	}
	gv, err := queryNumber(m, k.p.Program.Goal.Var, k.p.Program.Goal.Query)
	if err != nil {
		return err
	}
	out[0] = gv
	for ci, c := range k.p.Program.Constraints {
		cv, err := queryNumber(m, c.Var, c.Query)
		if err != nil {
			return err
		}
		out[1+2*ci] = cv
		if cv <= c.Bound {
			out[2+2*ci] = 1
		}
	}
	return nil
}

// Reduce implements WorldKernel: the goal mean, and each constraint's
// queried mean and satisfaction probability through the shared verdict
// (figures.go).
func (k *prologKernel) Reduce(sums []float64) (*Evaluation, error) {
	iters := float64(k.crn.iters)
	ev := &Evaluation{
		Value:    sums[0] / iters,
		Feasible: true,
		ConsProb: make([]float64, len(k.p.Program.Constraints)),
	}
	for ci, c := range k.p.Program.Constraints {
		judge(ev, ci, c, sums[2+2*ci]/iters, sums[1+2*ci]/iters)
	}
	return ev, nil
}

// ProbRule is one rule of the textual probabilistic IR: a probability
// annotation and a clause, in ProbLog's "p :: fact." notation.
type ProbRule struct {
	Prob   float64
	Clause string
}

// Translate renders the probabilistic IR of a program for one workflow: the
// deterministic rules with probability 1.0, and the probabilistic exetime
// facts with the bin probabilities of each task/type execution-time
// histogram (discretized to the given number of bins via sampling).
// This is the human-readable form of the §5.1 translation; evaluation uses
// the evaluators above rather than re-parsing this text.
func Translate(w *dag.Workflow, tbl *estimate.Table, prog *wlog.Program, bins, samples int, rng *rand.Rand) ([]ProbRule, error) {
	if bins < 1 || samples < bins {
		return nil, fmt.Errorf("probir: need bins >= 1 and samples >= bins")
	}
	var rules []ProbRule
	for _, r := range prog.Rules {
		text := r.Head.String()
		for bi, b := range r.Body {
			if bi == 0 {
				text += " :- "
			} else {
				text += ", "
			}
			text += b.String()
		}
		rules = append(rules, ProbRule{Prob: 1.0, Clause: text + "."})
	}
	for _, t := range w.Tasks {
		for j := range tbl.Types {
			td, err := tbl.Dist(t.ID, j)
			if err != nil {
				return nil, err
			}
			xs := make([]float64, samples)
			for i := range xs {
				xs[i] = td.Sample(rng)
			}
			h, err := dist.FromSamples(xs, bins)
			if err != nil {
				return nil, err
			}
			for bi := 0; bi < h.Bins(); bi++ {
				if h.Probs[bi] == 0 {
					continue
				}
				rules = append(rules, ProbRule{
					Prob:   h.Probs[bi],
					Clause: fmt.Sprintf("exetime(%s,v%d,%.1f).", t.ID, j, h.Mid(bi)),
				})
			}
		}
	}
	return rules, nil
}
