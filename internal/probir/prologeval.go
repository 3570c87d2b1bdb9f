package probir

import (
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
// rules with the Prolog machine, per sampled world. It is the path taken
// when a program defines its own goal/constraint predicates instead of
// relying on the engine-native constructs; it is exact but much slower, so
// Deco uses it for small problems and for validating the native evaluator.
//
// Database layout per world (the probabilistic IR realization):
//
//	task(tid).                     one per workflow task
//	vm(vid).                       one per catalog type (vid = v0..vK-1)
//	edge(root,X), edge(X,tail)     virtual source/sink as in Example 1
//	edge(X,Y).                     workflow structure
//	price(vid, $/second).
//	exetime(tid, vid, seconds).    sampled from the calibrated histograms
//	exetime(root, vid, 0). exetime(tail, vid, 0).
//	configs(tid, vid, 0|1).        the state being evaluated
//	configs(root, vid, 1). configs(tail, vid, 1).
type Prolog struct {
	W       *dag.Workflow
	Table   *estimate.Table
	Prices  []float64 // per hour, converted to $/s in the price facts
	Program *wlog.Program
	Iters   int

	base *prolog.Machine // static part: rules + structure facts
}

// typeAtom names catalog type j in the fact database.
func typeAtom(j int) prolog.Atom { return prolog.Atom(fmt.Sprintf("v%d", j)) }

// taskAtom names a task in the fact database. DAX IDs are already atoms-safe
// lowercase in our generators; quote-insensitive Atom covers the rest.
func taskAtom(id string) prolog.Atom { return prolog.Atom(id) }

// NewProlog builds the general evaluator for the given program.
func NewProlog(w *dag.Workflow, tbl *estimate.Table, prices []float64, prog *wlog.Program, iters int) (*Prolog, error) {
	if iters < 1 {
		return nil, fmt.Errorf("probir: iters must be >= 1, got %d", iters)
	}
	if prog.Goal == nil {
		return nil, fmt.Errorf("probir: program has no optimization goal")
	}
	if len(prices) != len(tbl.Types) {
		return nil, fmt.Errorf("probir: %d prices for %d types", len(prices), len(tbl.Types))
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Prolog{W: w, Table: tbl, Prices: prices, Program: prog, Iters: iters}
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

// NumTasks implements Evaluator.
func (p *Prolog) NumTasks() int { return p.W.Len() }

// NumTypes implements Evaluator.
func (p *Prolog) NumTypes() int { return len(p.Table.Types) }

var (
	exetimeInd = prolog.Indicator{Functor: "exetime", Arity: 3}
	configsInd = prolog.Indicator{Functor: "configs", Arity: 3}
)

// assertWorld installs the config facts and one sampled world of exetime
// facts into m.
func (p *Prolog) assertWorld(m *prolog.Machine, config []int, rng *rand.Rand) error {
	m.RetractAll(exetimeInd)
	m.RetractAll(configsInd)
	for i, t := range p.W.Tasks {
		for j := range p.Table.Types {
			td, err := p.Table.Dist(t.ID, j)
			if err != nil {
				return err
			}
			secs := td.Sample(rng)
			if err := m.AssertFact(prolog.Comp("exetime", taskAtom(t.ID), typeAtom(j), prolog.Number(secs))); err != nil {
				return err
			}
			con := 0
			if config[i] == j {
				con = 1
			}
			if err := m.AssertFact(prolog.Comp("configs", taskAtom(t.ID), typeAtom(j), prolog.Number(con))); err != nil {
				return err
			}
		}
	}
	// Virtual root/tail run "for free" on every type.
	for _, v := range []prolog.Atom{"root", "tail"} {
		for j := range p.Table.Types {
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

// Evaluate implements Evaluator: the WLog interpreter of Algorithm 1 run for
// Iters sampled realizations, through the same per-world kernel the device
// path executes, so results are device- and schedule-independent.
func (p *Prolog) Evaluate(config []int, rng *rand.Rand) (*Evaluation, error) {
	k, err := p.Kernel(config, rng.Int63())
	if err != nil {
		return nil, err
	}
	return RunKernel(k)
}

// prologKernel interprets one world per thread, world it drawing its facts
// from WorldRNG(base, it). Figures: the goal value, then per constraint its
// queried value and a 0/1 satisfaction indicator. Machines are pooled: each
// concurrent world checks one out, installs its sampled facts (which clears
// any tabled answers), and returns it.
type prologKernel struct {
	p      *Prolog
	config []int
	base   int64
	pool   sync.Pool
}

// Kernel builds the per-world kernel of one configuration over the world
// substream base. Interpreted worlds cannot share realizations across
// states, so the solver derives base from its seed and the state key.
func (p *Prolog) Kernel(config []int, base int64) (WorldKernel, error) {
	if len(config) != p.W.Len() {
		return nil, fmt.Errorf("probir: config length %d, want %d", len(config), p.W.Len())
	}
	k := &prologKernel{p: p, config: config, base: base}
	k.pool.New = func() any { return p.base.Clone() }
	return k, nil
}

// Worlds implements WorldKernel.
func (k *prologKernel) Worlds() int { return k.p.Iters }

// Width implements WorldKernel.
func (k *prologKernel) Width() int { return 1 + 2*len(k.p.Program.Constraints) }

// Sample implements WorldKernel.
func (k *prologKernel) Sample(it int, out []float64) error {
	m := k.pool.Get().(*prolog.Machine)
	defer k.pool.Put(m)
	if err := k.p.assertWorld(m, k.config, WorldRNG(k.base, it)); err != nil {
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

// Reduce implements WorldKernel.
func (k *prologKernel) Reduce(sums []float64) (*Evaluation, error) {
	p := k.p
	iters := float64(p.Iters)
	ev := &Evaluation{
		Value:    sums[0] / iters,
		Feasible: true,
		ConsProb: make([]float64, len(p.Program.Constraints)),
	}
	for ci, c := range p.Program.Constraints {
		mean := sums[1+2*ci] / iters
		if c.Percentile < 0 {
			// Deterministic notion on the mean.
			if mean <= c.Bound {
				ev.ConsProb[ci] = 1
			} else {
				ev.Feasible = false
				if c.Bound > 0 {
					ev.Violation += (mean - c.Bound) / c.Bound
				} else {
					ev.Violation += mean
				}
			}
			continue
		}
		prob := sums[2+2*ci] / iters
		ev.ConsProb[ci] = prob
		if prob < c.Percentile {
			ev.Feasible = false
			ev.Violation += c.Percentile - prob
			if mean > c.Bound && c.Bound > 0 {
				ev.Violation += (mean - c.Bound) / c.Bound
			}
		}
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
