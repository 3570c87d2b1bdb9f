package deco

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"deco/internal/dag"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/prolog"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// EnsembleSpec describes a workflow-ensemble problem (§3.2): N structurally
// similar workflows with priorities, per-member probabilistic deadlines, and
// a shared budget; the engine admits the subset maximizing the Eq. 4 score.
// It is the Go form of a WLog ensemble program (ParseEnsembleProgram).
type EnsembleSpec struct {
	// Kind is the ensemble type: constant, uniform-sorted, uniform-unsorted,
	// pareto-sorted or pareto-unsorted (§6.1).
	Kind string
	// App is the member application by workflow import name (montage, ligo,
	// epigenomics, cybershake, pipeline).
	App string
	// N is the number of member workflows.
	N int
	// Budget is the shared ensemble budget B of Eq. 5, in dollars.
	Budget float64
	// DeadlineSeconds, when positive, is every member's deadline; zero
	// derives per-member deadlines as 2x the member's reference critical
	// path (the paper's D3 midpoint).
	DeadlineSeconds float64
	// DeadlinePercentile is the probabilistic deadline requirement (0
	// defaults to 0.96; -1 selects the deterministic mean notion; above 1
	// is an error).
	DeadlinePercentile float64
	// AStar selects best-first admission search (enabled(astar)).
	AStar bool
}

// EnsembleResult is the engine's answer to an ensemble problem. The JSON
// form is the result document decod serves for ensemble jobs.
type EnsembleResult struct {
	Kind string `json:"kind"`
	App  string `json:"app"`
	N    int    `json:"n"`
	// Score is the achieved Eq. 4 score Σ 2^-priority over admitted members;
	// MaxScore is the score of admitting everything.
	Score    float64 `json:"score"`
	MaxScore float64 `json:"max_score"`
	// Admitted lists the admitted member workflow names.
	Admitted []string `json:"admitted"`
	// TotalCost is the summed planned cost of the admitted members; Feasible
	// reports whether it fits the budget.
	TotalCost float64 `json:"total_cost"`
	Budget    float64 `json:"budget"`
	Feasible  bool    `json:"feasible"`
	// StatesEvaluated counts admission-search evaluations (member planning
	// searches are separate and share the engine's evaluation cache).
	StatesEvaluated int `json:"states_evaluated"`
}

// ensembleApps maps workflow import names to member application generators.
var ensembleApps = map[string]wfgen.App{
	"montage":     wfgen.AppMontage,
	"montage1":    wfgen.AppMontage,
	"ligo":        wfgen.AppLigo,
	"epigenomics": wfgen.AppEpigenomics,
	"cybershake":  wfgen.AppCyberShake,
	"pipeline":    wfgen.AppPipeline,
}

// ensembleKind validates and normalizes a spec kind.
func ensembleKind(s string) (ensemble.Kind, error) {
	k := ensemble.Kind(strings.ReplaceAll(s, "_", "-"))
	for _, known := range ensemble.Kinds {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("deco: unknown ensemble kind %q", s)
}

// RunEnsemble solves an ensemble spec: every member is planned with the
// transformation-based scheduling search under its deadline, then the
// admission search maximizes the score under the shared budget. All member
// planning searches and the admission search run on the engine's device and
// share its evaluation cache and CRN base, so structurally identical members
// hit evaluations their siblings warmed.
func (e *Engine) RunEnsemble(spec EnsembleSpec) (*EnsembleResult, error) {
	return e.RunEnsembleContext(context.Background(), spec)
}

// RunEnsembleContext is RunEnsemble with cancellation.
func (e *Engine) RunEnsembleContext(ctx context.Context, spec EnsembleSpec) (*EnsembleResult, error) {
	kind, err := ensembleKind(spec.Kind)
	if err != nil {
		return nil, err
	}
	app, ok := ensembleApps[spec.App]
	if !ok {
		return nil, fmt.Errorf("deco: no ensemble application for import %q", spec.App)
	}
	if spec.N < 1 {
		return nil, fmt.Errorf("deco: ensemble needs at least one workflow")
	}
	if spec.Budget <= 0 {
		return nil, fmt.Errorf("deco: ensemble budget must be positive")
	}
	if err := checkPercentile("deadline", spec.DeadlinePercentile); err != nil {
		return nil, err
	}
	prices, err := e.Prices()
	if err != nil {
		return nil, err
	}
	ens, err := ensemble.Generate(kind, app, spec.N, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	tblOf := func(w *dag.Workflow) (*estimate.Table, error) { return e.est.BuildTable(w) }
	pct := spec.DeadlinePercentile
	if pct == 0 {
		pct = 0.96
	}
	if spec.DeadlineSeconds > 0 {
		for _, w := range ens.Workflows {
			w.DeadlineSeconds = spec.DeadlineSeconds
			w.DeadlinePercentile = pct
		}
	} else if err := ensemble.DefaultDeadlines(ens, tblOf, 2.0, pct); err != nil {
		return nil, err
	}

	// Member planning: a quarter of the engine's budget per member (the
	// admission search keeps the full budget), same cache, same CRN base.
	plannerSearch := e.search
	plannerSearch.Ctx = ctx
	plannerSearch.MaxStates = e.search.MaxStates / 4
	if plannerSearch.MaxStates < 100 {
		plannerSearch.MaxStates = 100
	}
	space, err := ensemble.NewSpace(ens, spec.Budget, ensemble.DecoPlanner(tblOf, prices, e.iters, plannerSearch))
	if err != nil {
		return nil, err
	}

	admission := e.search
	admission.Ctx = ctx
	admission.Maximize = true
	admission.AStar = spec.AStar
	res, err := opt.Search(space, admission)
	if err != nil {
		return nil, err
	}

	out := &EnsembleResult{
		Kind: string(kind), App: spec.App, N: spec.N,
		Score: res.BestEval.Value, MaxScore: ens.MaxScore(),
		TotalCost: space.TotalCost(res.Best), Budget: spec.Budget,
		Feasible: res.Feasible, StatesEvaluated: res.Evaluated,
	}
	for i, bit := range res.Best {
		if bit == 1 {
			out.Admitted = append(out.Admitted, ens.Workflows[i].Name)
		}
	}
	return out, nil
}

// RunEnsembleProgram parses a WLog ensemble program (ParseEnsembleProgram)
// and solves it. It errors when src is not an ensemble program — ordinary
// scheduling programs go through RunProgram.
func (e *Engine) RunEnsembleProgram(ctx context.Context, src string) (*EnsembleResult, error) {
	spec, ok, err := ParseEnsembleProgram(src)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("deco: program has no ensemble(kind, count) fact; use RunProgram for scheduling programs")
	}
	return e.RunEnsembleContext(ctx, spec)
}

// ParseEnsembleProgram recognizes a WLog ensemble program and extracts its
// spec. An ensemble program declares its population with an ensemble(Kind, N)
// fact, imports the member application, maximizes the score:
//
//	import(amazonec2).
//	import(ligo).
//	ensemble(constant, 4).
//	maximize S in score(S).
//	C in totalcost(C) satisfies budget(mean, 40).
//	enabled(astar).
//
// The budget(mean, B) constraint is the shared Eq. 5 budget; an optional
// deadline constraint sets every member's deadline (absent, members get the
// 2x-critical-path default at 96%). Returns ok=false when src parses but has
// no ensemble(_, _) fact — i.e. it is an ordinary scheduling program.
func ParseEnsembleProgram(src string) (spec EnsembleSpec, ok bool, err error) {
	prog, err := wlog.Parse(src)
	if err != nil {
		return EnsembleSpec{}, false, err
	}
	return parseEnsembleProgram(prog)
}

func parseEnsembleProgram(prog *wlog.Program) (spec EnsembleSpec, ok bool, err error) {
	if !prog.HasRule("ensemble", 2) {
		return EnsembleSpec{}, false, nil
	}
	kind, n, err := ensembleFact(prog)
	if err != nil {
		return EnsembleSpec{}, false, err
	}
	spec = EnsembleSpec{Kind: kind, N: n, AStar: prog.AStar}
	if prog.Goal == nil || !prog.Goal.Maximize {
		return EnsembleSpec{}, false, fmt.Errorf("deco: ensemble programs maximize the score: write 'maximize S in score(S).'")
	}
	if gi, err := goalIndicator(prog); err != nil || gi.name != "score" {
		return EnsembleSpec{}, false, fmt.Errorf("deco: ensemble programs maximize score/1, found goal %s", prog.Goal.Query)
	}
	for _, imp := range prog.Imports {
		if _, cloudy := cloudImports[imp]; cloudy {
			continue
		}
		if _, known := ensembleApps[imp]; known {
			spec.App = imp
		}
	}
	if spec.App == "" {
		return EnsembleSpec{}, false, fmt.Errorf("deco: ensemble program imports no member application (montage, ligo, epigenomics, cybershake, pipeline)")
	}
	for _, c := range prog.Constraints {
		switch c.Kind {
		case "budget":
			if c.Percentile != -1 {
				return EnsembleSpec{}, false, fmt.Errorf("deco: the ensemble budget is the deterministic Eq. 5 notion; write budget(mean, B)")
			}
			spec.Budget = c.Bound
		case "deadline":
			spec.DeadlineSeconds = c.Bound
			spec.DeadlinePercentile = c.Percentile
		}
	}
	if spec.Budget <= 0 {
		return EnsembleSpec{}, false, fmt.Errorf("deco: ensemble program needs a budget(mean, B) constraint")
	}
	return spec, true, nil
}

func prologCompound(t prolog.Term) (*prolog.Compound, bool) {
	c, ok := prolog.Deref(t).(*prolog.Compound)
	return c, ok
}

func prologAtom(t prolog.Term) (string, bool) {
	a, ok := prolog.Deref(t).(prolog.Atom)
	return string(a), ok
}

func prologNumber(t prolog.Term) (float64, bool) {
	n, ok := prolog.Deref(t).(prolog.Number)
	return float64(n), ok
}

// ensembleFact extracts (kind, n) from the program's ensemble/2 fact.
func ensembleFact(prog *wlog.Program) (string, int, error) {
	for _, r := range prog.Rules {
		c, isCompound := prologCompound(r.Head)
		if !isCompound || c.Functor != "ensemble" || len(c.Args) != 2 {
			continue
		}
		kind, okKind := prologAtom(c.Args[0])
		n, okN := prologNumber(c.Args[1])
		if !okKind || !okN || n != float64(int(n)) || n < 1 {
			return "", 0, fmt.Errorf("deco: ensemble fact must be ensemble(kind, count), found %s", r.Head)
		}
		return kind, int(n), nil
	}
	return "", 0, fmt.Errorf("deco: missing ensemble(kind, count) fact")
}
