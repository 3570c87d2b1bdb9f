package ensemble

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/wfgen"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestGenerateKinds(t *testing.T) {
	for _, kind := range Kinds {
		e, err := Generate(kind, wfgen.AppMontage, 8, rng(1))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(e.Workflows) != 8 {
			t.Fatalf("%s: %d workflows", kind, len(e.Workflows))
		}
		// Priorities are a permutation of 0..n-1.
		seen := map[int]bool{}
		for _, w := range e.Workflows {
			if w.Priority < 0 || w.Priority >= 8 || seen[w.Priority] {
				t.Fatalf("%s: bad priorities", kind)
			}
			seen[w.Priority] = true
		}
	}
	if _, err := Generate("nope", wfgen.AppMontage, 3, rng(1)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Generate(Constant, wfgen.AppMontage, 0, rng(1)); err == nil {
		t.Error("empty ensemble accepted")
	}
}

func TestConstantKindUniformSizes(t *testing.T) {
	e, err := Generate(Constant, wfgen.AppLigo, 5, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	first := e.Workflows[0].Len()
	for _, w := range e.Workflows {
		if w.Len() != first {
			t.Errorf("constant ensemble has varying sizes: %d vs %d", w.Len(), first)
		}
	}
}

func TestSortedKindPriorityBySize(t *testing.T) {
	e, err := Generate(UniformSorted, wfgen.AppLigo, 10, rng(3))
	if err != nil {
		t.Fatal(err)
	}
	// Priority 0 should be (one of) the largest.
	var p0 *dag.Workflow
	maxLen := 0
	for _, w := range e.Workflows {
		if w.Priority == 0 {
			p0 = w
		}
		if w.Len() > maxLen {
			maxLen = w.Len()
		}
	}
	if p0 == nil || p0.Len() != maxLen {
		t.Errorf("priority-0 workflow size %d, max %d", p0.Len(), maxLen)
	}
}

func TestScore(t *testing.T) {
	e := &Ensemble{Workflows: []*dag.Workflow{
		{Name: "a", Priority: 0},
		{Name: "b", Priority: 1},
		{Name: "c", Priority: 2},
	}}
	if got := e.Score([]bool{true, true, true}); got != 1.75 {
		t.Errorf("score %v, want 1.75", got)
	}
	if got := e.Score([]bool{true, false, false}); got != 1 {
		t.Errorf("score %v, want 1", got)
	}
	if got := e.Score([]bool{false, false, false}); got != 0 {
		t.Errorf("score %v, want 0", got)
	}
	if e.MaxScore() != 1.75 {
		t.Errorf("max score %v", e.MaxScore())
	}
}

// fixedPlanner returns canned plans of the given costs.
func fixedPlanner(costs map[string]float64, feasible map[string]bool) Planner {
	return func(w *dag.Workflow, d, p float64) (*PlannedWorkflow, error) {
		f, ok := feasible[w.Name]
		if !ok {
			f = true
		}
		return &PlannedWorkflow{Cost: costs[w.Name], Feasible: f}, nil
	}
}

func smallEnsemble() *Ensemble {
	return &Ensemble{Workflows: []*dag.Workflow{
		{Name: "a", Priority: 0},
		{Name: "b", Priority: 1},
		{Name: "c", Priority: 2},
	}}
}

func TestSpaceEvaluate(t *testing.T) {
	e := smallEnsemble()
	sp, err := NewSpace(e, 10, fixedPlanner(map[string]float64{"a": 6, "b": 5, "c": 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Admit a+c: cost 7 <= 10, score 1.25.
	ev, err := sp.Evaluate(opt.State{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible || ev.Value != 1.25 {
		t.Errorf("eval %+v", ev)
	}
	// Admit all: cost 12 > 10.
	ev, err = sp.Evaluate(opt.State{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Feasible {
		t.Error("over-budget state feasible")
	}
	if ev.Violation <= 0 {
		t.Error("violation not set")
	}
	if _, err := sp.Evaluate(opt.State{1}); err == nil {
		t.Error("short state accepted")
	}
}

func TestSpaceNeighborsSkipUnplannable(t *testing.T) {
	e := smallEnsemble()
	sp, err := NewSpace(e, 10, fixedPlanner(
		map[string]float64{"a": 1, "b": 1, "c": 1},
		map[string]bool{"b": false}))
	if err != nil {
		t.Fatal(err)
	}
	ns := sp.Neighbors(sp.Initial())
	if len(ns) != 2 {
		t.Fatalf("neighbors %v (b is unplannable)", ns)
	}
	for _, n := range ns {
		if n.Apply(nil, sp.Initial())[1] == 1 {
			t.Error("unplannable workflow admitted")
		}
	}
}

func TestSearchMaximizesScoreUnderBudget(t *testing.T) {
	e := smallEnsemble()
	// a costs 10 (score 1), b+c cost 5+4 (score 0.75): with budget 10 the
	// optimum admits a alone.
	sp, err := NewSpace(e, 10, fixedPlanner(map[string]float64{"a": 10, "b": 5, "c": 4}, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(sp, opt.Options{Maximize: true, MaxStates: 100, BeamWidth: 8, Patience: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.BestEval.Value != 1 {
		t.Fatalf("best %v eval %+v", res.Best, res.BestEval)
	}
	if res.Best[0] != 1 || res.Best[1] != 0 || res.Best[2] != 0 {
		t.Errorf("admission %v, want a only", res.Best)
	}
}

func TestMinMaxBudget(t *testing.T) {
	e := smallEnsemble()
	sp, err := NewSpace(e, 0, fixedPlanner(
		map[string]float64{"a": 6, "b": 5, "c": 1},
		map[string]bool{"b": false}))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sp.MinMaxBudget()
	if lo != 1 || hi != 7 { // b is excluded
		t.Errorf("min %v max %v", lo, hi)
	}
}

func TestAdmittedConversion(t *testing.T) {
	got := Admitted(opt.State{1, 0, 1})
	if !got[0] || got[1] || !got[2] {
		t.Errorf("admitted %v", got)
	}
}

func TestDefaultDeadlines(t *testing.T) {
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 10, 2000, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.New(cat, md)
	e, err := Generate(Constant, wfgen.AppPipeline, 3, rng(6))
	if err != nil {
		t.Fatal(err)
	}
	tblOf := func(w *dag.Workflow) (*estimate.Table, error) { return est.BuildTable(w) }
	if err := DefaultDeadlines(e, tblOf, 1.5, 0.96); err != nil {
		t.Fatal(err)
	}
	for _, w := range e.Workflows {
		if w.DeadlineSeconds <= 0 || w.DeadlinePercentile != 0.96 {
			t.Errorf("%s deadline %v/%v", w.Name, w.DeadlineSeconds, w.DeadlinePercentile)
		}
	}
}

func TestInfeasiblePlansNeverAdmitted(t *testing.T) {
	e := smallEnsemble()
	sp, err := NewSpace(e, 100, fixedPlanner(
		map[string]float64{"a": 1, "b": 1, "c": 1},
		map[string]bool{"a": false, "b": false, "c": false}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Search(sp, opt.Options{Maximize: true, MaxStates: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEval.Value != 0 {
		t.Errorf("score %v with all plans infeasible", res.BestEval.Value)
	}
}

func TestScoreIsMonotoneInAdmission(t *testing.T) {
	e, err := Generate(ParetoUnsorted, wfgen.AppCyberShake, 12, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	adm := make([]bool, 12)
	prev := 0.0
	for i := range adm {
		adm[i] = true
		s := e.Score(adm)
		if s <= prev {
			t.Fatalf("score not increasing at %d: %v <= %v", i, s, prev)
		}
		prev = s
	}
	if math.Abs(prev-e.MaxScore()) > 1e-12 {
		t.Errorf("full admission %v != max score %v", prev, e.MaxScore())
	}
}

// TestSpaceMovesMatchReference holds the admission moves to the clone-based
// generator they replaced: the children match in order and content, and
// every move lists exactly the workflow it admits.
func TestSpaceMovesMatchReference(t *testing.T) {
	e := &Ensemble{}
	sp := &Space{E: e}
	for i := 0; i < 6; i++ {
		e.Workflows = append(e.Workflows, &dag.Workflow{Priority: i})
		var p *PlannedWorkflow
		if i != 2 && i != 5 {
			p = &PlannedWorkflow{Cost: 1, Feasible: true}
		}
		sp.Plans = append(sp.Plans, p)
	}
	for _, st := range []opt.State{{0, 0, 0, 0, 0, 0}, {1, 0, 0, 1, 0, 0}, {1, 1, 0, 1, 1, 0}} {
		var want []opt.State
		for i := range st {
			if st[i] == 0 && sp.Plans[i] != nil {
				c := st.Clone()
				c[i] = 1
				want = append(want, c)
			}
		}
		moves := sp.Neighbors(st)
		if len(moves) != len(want) {
			t.Fatalf("%v: %d moves, reference %d", st, len(moves), len(want))
		}
		for i, mv := range moves {
			child := mv.Apply(nil, st)
			if !slices.Equal(child, want[i]) {
				t.Fatalf("%v: move %d gives %v, reference %v", st, i, child, want[i])
			}
			if len(mv.Tasks) != 1 || st[mv.Tasks[0]] == child[mv.Tasks[0]] {
				t.Fatalf("%v: move %d lists %v, want the one admitted workflow", st, i, mv.Tasks)
			}
		}
	}
}
