// Package ensemble implements the workflow-ensemble problem of §3.2: groups
// of structurally similar workflows with priorities, per-workflow
// probabilistic deadlines and a shared budget. The optimization goal
// maximizes Σ 2^-Priority(w) over completed workflows (Eq. 4) subject to the
// ensemble budget (Eq. 5) and each admitted workflow's deadline (Eq. 6).
//
// The five ensemble types of the paper's evaluation (constant, uniform
// sorted/unsorted, Pareto sorted/unsorted) control how workflow sizes are
// drawn and whether priority correlates with size.
package ensemble

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
)

// Kind enumerates the ensemble types of §6.1.
type Kind string

// The five ensemble types used in Figure 9.
const (
	Constant        Kind = "constant"
	UniformSorted   Kind = "uniform-sorted"
	UniformUnsorted Kind = "uniform-unsorted"
	ParetoSorted    Kind = "pareto-sorted"
	ParetoUnsorted  Kind = "pareto-unsorted"
)

// Kinds lists all ensemble types in presentation order.
var Kinds = []Kind{Constant, UniformSorted, UniformUnsorted, ParetoSorted, ParetoUnsorted}

// Ensemble is a prioritized group of workflows sharing a budget.
type Ensemble struct {
	Kind      Kind
	Workflows []*dag.Workflow // Workflows[i].Priority is set; 0 = highest
}

// Score returns Eq. 4's total score of the given admission set.
func (e *Ensemble) Score(admitted []bool) float64 {
	s := 0.0
	for i, w := range e.Workflows {
		if i < len(admitted) && admitted[i] {
			s += math.Exp2(-float64(w.Priority))
		}
	}
	return s
}

// MaxScore is the score of admitting everything.
func (e *Ensemble) MaxScore() float64 {
	all := make([]bool, len(e.Workflows))
	for i := range all {
		all[i] = true
	}
	return e.Score(all)
}

// Generate builds an ensemble of n workflows of the given application type.
// Sizes are drawn per the ensemble kind from the paper's size set
// {small, medium, large}; "sorted" kinds assign priority by descending size
// (big workflows matter most), "unsorted" kinds assign priorities randomly.
func Generate(kind Kind, app wfgen.App, n int, rng *rand.Rand) (*Ensemble, error) {
	if n < 1 {
		return nil, fmt.Errorf("ensemble: need at least one workflow")
	}
	sizes := make([]int, n)
	const (
		small = 20
		med   = 100
		large = 1000
	)
	switch kind {
	case Constant:
		for i := range sizes {
			sizes[i] = med
		}
	case UniformSorted, UniformUnsorted:
		opts := []int{small, med, large}
		for i := range sizes {
			sizes[i] = opts[rng.Intn(len(opts))]
		}
	case ParetoSorted, ParetoUnsorted:
		// Pareto-distributed sizes: many small, few large.
		for i := range sizes {
			u := rng.Float64()
			switch {
			case u < 0.7:
				sizes[i] = small
			case u < 0.93:
				sizes[i] = med
			default:
				sizes[i] = large
			}
		}
	default:
		return nil, fmt.Errorf("ensemble: unknown kind %q", kind)
	}

	e := &Ensemble{Kind: kind}
	for i, sz := range sizes {
		w, err := wfgen.BySize(app, sz, rng)
		if err != nil {
			return nil, err
		}
		w.Name = fmt.Sprintf("%s-%02d", w.Name, i)
		e.Workflows = append(e.Workflows, w)
	}

	// Priorities: sorted kinds rank by size (largest = priority 0);
	// unsorted kinds shuffle.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	switch kind {
	case UniformSorted, ParetoSorted:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if e.Workflows[idx[j]].Len() > e.Workflows[idx[i]].Len() {
					idx[i], idx[j] = idx[j], idx[i]
				}
			}
		}
	default:
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	for rank, i := range idx {
		e.Workflows[i].Priority = rank
	}
	return e, nil
}

// PlannedWorkflow is the per-workflow planning result the admission search
// consumes: a type configuration with its estimated cost and deadline
// feasibility.
type PlannedWorkflow struct {
	Config   opt.State
	Cost     float64
	Feasible bool
}

// Planner produces a PlannedWorkflow for one workflow under a deadline.
// Deco's planner runs the transformation-based search; SPSS's planner uses
// its static heuristic. Both plug into the same admission machinery.
type Planner func(w *dag.Workflow, deadlineSec, percentile float64) (*PlannedWorkflow, error)

// Space is the admission search space for opt.Search: state[i] ∈ {0,1} is
// workflow i's admission bit. The initial state admits nothing; neighbors
// admit one more workflow (the state transition of §6.1: "we consider
// executing each of the uncompleted workflows in the ensemble to generate
// child states"). The goal is maximized.
type Space struct {
	E *Ensemble
	// Plans holds the per-workflow plan (nil entries are unplannable
	// workflows that can never be admitted).
	Plans []*PlannedWorkflow
	// Budget is the ensemble budget B of Eq. 5 (callers may change it
	// between searches for budget sweeps; the fingerprint covers it).
	Budget float64

	// compiled flat arrays for the kernel path, derived from E and Plans on
	// first use — both must be fully assembled before the first evaluation.
	compileOnce sync.Once
	weights     []float64 // Exp2(-priority) per workflow
	costs       []float64 // planned cost per workflow (0 when unplannable)
	plannable   []bool
}

// compile flattens the per-workflow weight and cost lookups once, so the
// kernel path touches only dense slices.
func (s *Space) compile() {
	s.compileOnce.Do(func() {
		n := len(s.E.Workflows)
		s.weights = make([]float64, n)
		s.costs = make([]float64, n)
		s.plannable = make([]bool, n)
		for i, w := range s.E.Workflows {
			s.weights[i] = math.Exp2(-float64(w.Priority))
			if i < len(s.Plans) && s.Plans[i] != nil {
				s.costs[i] = s.Plans[i].Cost
				s.plannable[i] = true
			}
		}
	})
}

// NewSpace plans every workflow with the planner and assembles the space.
// Deadlines and percentiles come from each workflow's own fields.
func NewSpace(e *Ensemble, budget float64, plan Planner) (*Space, error) {
	sp := &Space{E: e, Budget: budget}
	for _, w := range e.Workflows {
		p, err := plan(w, w.DeadlineSeconds, w.DeadlinePercentile)
		if err != nil {
			return nil, fmt.Errorf("ensemble: planning %s: %w", w.Name, err)
		}
		if p != nil && !p.Feasible {
			p = nil // cannot meet its deadline at any cost: never admit
		}
		sp.Plans = append(sp.Plans, p)
	}
	return sp, nil
}

// Initial is the search's start state: nothing admitted.
func (s *Space) Initial() opt.State { return make(opt.State, len(s.E.Workflows)) }

// Starts implements opt.Space.
func (s *Space) Starts() []opt.State { return []opt.State{s.Initial()} }

// Neighbors implements opt.Space: admit one more (plannable) workflow.
func (s *Space) Neighbors(st opt.State) []opt.Transform {
	var out []opt.Transform
	all := opt.Indices(len(st))
	for i := range st {
		if st[i] == 0 && s.Plans[i] != nil {
			out = append(out, opt.Transform{Tasks: all[i : i+1], Step: 1})
		}
	}
	return out
}

// Describe implements opt.Space: the admission kernel and the space's
// fingerprint. The objective is deterministic, so the seed plays no part.
func (s *Space) Describe(context.Context, int64) opt.Descriptor {
	return opt.Descriptor{Kernel: s.Kernel, Fingerprint: s.Fingerprint()}
}

// Evaluate scores the admitted set directly — the test oracle of the
// kernel: the score of the admitted set, feasible iff the total cost fits
// the budget (per-workflow deadlines are already folded into the plans).
func (s *Space) Evaluate(st opt.State) (*probir.Evaluation, error) {
	if len(st) != len(s.E.Workflows) {
		return nil, fmt.Errorf("ensemble: state length %d, want %d", len(st), len(s.E.Workflows))
	}
	cost := 0.0
	admitted := make([]bool, len(st))
	for i, bit := range st {
		if bit == 0 {
			continue
		}
		if s.Plans[i] == nil {
			return nil, fmt.Errorf("ensemble: state admits unplannable workflow %d", i)
		}
		admitted[i] = true
		cost += s.Plans[i].Cost
	}
	ev := &probir.Evaluation{Value: s.E.Score(admitted), Feasible: cost <= s.Budget}
	if !ev.Feasible && s.Budget > 0 {
		ev.Violation = (cost - s.Budget) / s.Budget
	}
	return ev, nil
}

// Kernel builds the admission kernel of one state. The objective is
// deterministic — no Monte-Carlo worlds — so the kernel is a single world of
// two figures (score sum, cost sum). Figures fold in workflow-index order,
// exactly as Evaluate accumulates them, so both are bit-identical on every
// device.
func (s *Space) Kernel(st opt.State) (probir.WorldKernel, error) {
	if len(st) != len(s.E.Workflows) {
		return nil, fmt.Errorf("ensemble: state length %d, want %d", len(st), len(s.E.Workflows))
	}
	s.compile()
	for i, bit := range st {
		if bit != 0 && !s.plannable[i] {
			return nil, fmt.Errorf("ensemble: state admits unplannable workflow %d", i)
		}
	}
	return &admissionKernel{sp: s, st: st, budget: s.Budget}, nil
}

// Fingerprint is a content hash of everything Evaluate depends on —
// budget, priorities, and each plan's cost and admissibility — so cache
// entries from different ensembles, plan sets, or budget sweep points never
// collide.
func (s *Space) Fingerprint() string {
	if s.E == nil || len(s.Plans) != len(s.E.Workflows) {
		return "" // half-built space: cannot vouch for identity
	}
	h := sha256.New()
	var buf [8]byte
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putF(s.Budget)
	putF(float64(len(s.E.Workflows)))
	for i, w := range s.E.Workflows {
		putF(float64(w.Priority))
		if s.Plans[i] == nil {
			putF(math.NaN())
			continue
		}
		putF(s.Plans[i].Cost)
	}
	return fmt.Sprintf("ensemble:%x", h.Sum(nil))
}

// admissionKernel is the deterministic single-world kernel of the admission
// space: figure 0 is the Eq. 4 score sum, figure 1 the Eq. 5 cost sum.
type admissionKernel struct {
	sp     *Space
	st     opt.State
	budget float64
}

func (k *admissionKernel) Worlds() int { return 1 }
func (k *admissionKernel) Width() int  { return 2 }

func (k *admissionKernel) Sample(lo, hi int, out []float64) error {
	for r := range hi - lo {
		score, cost := 0.0, 0.0
		for i, bit := range k.st {
			if bit == 0 {
				continue
			}
			score += k.sp.weights[i]
			cost += k.sp.costs[i]
		}
		out[2*r] = score
		out[2*r+1] = cost
	}
	return nil
}

func (k *admissionKernel) Reduce(sums []float64, _ int) (*probir.Evaluation, error) {
	cost := sums[1]
	ev := &probir.Evaluation{Value: sums[0], Feasible: cost <= k.budget}
	if !ev.Feasible && k.budget > 0 {
		ev.Violation = (cost - k.budget) / k.budget
	}
	return ev, nil
}

// TotalCost sums the planned cost of the admitted workflows.
func (s *Space) TotalCost(st opt.State) float64 {
	c := 0.0
	for i, bit := range st {
		if bit == 1 && s.Plans[i] != nil {
			c += s.Plans[i].Cost
		}
	}
	return c
}

// Admitted converts a state to the bool form used by Score.
func Admitted(st opt.State) []bool {
	out := make([]bool, len(st))
	for i, v := range st {
		out[i] = v == 1
	}
	return out
}

// MinMaxBudget returns the smallest budget that admits the single cheapest
// plannable workflow and the budget admitting everything plannable — the
// MinBudget/MaxBudget anchors the Bgt1..Bgt5 sweep interpolates between.
func (s *Space) MinMaxBudget() (min, max float64) {
	min = math.Inf(1)
	for _, p := range s.Plans {
		if p == nil {
			continue
		}
		if p.Cost < min {
			min = p.Cost
		}
		max += p.Cost
	}
	if math.IsInf(min, 1) {
		min = 0
	}
	return min, max
}

// DefaultDeadlines assigns each workflow a deadline of slack × its
// mean critical-path time on the median type, with the given probabilistic
// percentile. It mirrors the paper's deadline generation between
// MinDeadline and MaxDeadline.
func DefaultDeadlines(e *Ensemble, tbl func(w *dag.Workflow) (*estimate.Table, error), slack, percentile float64) error {
	for _, w := range e.Workflows {
		t, err := tbl(w)
		if err != nil {
			return err
		}
		cfg := make(map[string]int, w.Len())
		for _, task := range w.Tasks {
			cfg[task.ID] = 1 // m1.medium as the reference
		}
		means, err := t.MeanDurations(cfg)
		if err != nil {
			return err
		}
		ms, _, err := w.Makespan(means)
		if err != nil {
			return err
		}
		w.DeadlineSeconds = ms * slack
		w.DeadlinePercentile = percentile
	}
	return nil
}
