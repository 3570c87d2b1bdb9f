package deco_test

import (
	"context"
	"strings"
	"testing"

	"deco"
)

const ensembleProgram = `
import(amazonec2).
import(pipeline).
ensemble(constant, 4).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, 40).
enabled(astar).
`

func TestParseEnsembleProgram(t *testing.T) {
	spec, ok, err := deco.ParseEnsembleProgram(ensembleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ensemble program not recognized")
	}
	if spec.Kind != "constant" || spec.N != 4 || spec.App != "pipeline" {
		t.Fatalf("bad spec: %+v", spec)
	}
	if spec.Budget != 40 {
		t.Fatalf("budget = %v, want 40", spec.Budget)
	}
	if !spec.AStar {
		t.Fatal("enabled(astar) not picked up")
	}
	if spec.DeadlineSeconds != 0 {
		t.Fatalf("unexpected deadline %v", spec.DeadlineSeconds)
	}
}

func TestParseEnsembleProgramNotEnsemble(t *testing.T) {
	src := `
import(amazonec2).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(95%,2h).
`
	_, ok, err := deco.ParseEnsembleProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("scheduling program misrecognized as ensemble")
	}
}

func TestParseEnsembleProgramErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"minimize goal", `
import(ligo).
ensemble(constant, 2).
minimize S in score(S).
C in totalcost(C) satisfies budget(mean, 10).
`, "maximize"},
		{"no budget", `
import(ligo).
ensemble(constant, 2).
maximize S in score(S).
`, "budget(mean, B)"},
		{"percentile budget", `
import(ligo).
ensemble(constant, 2).
maximize S in score(S).
C in totalcost(C) satisfies budget(95%, 10).
`, "budget(mean, B)"},
		{"no app import", `
import(amazonec2).
ensemble(constant, 2).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, 10).
`, "member application"},
		{"bad count", `
import(ligo).
ensemble(constant, zero).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, 10).
`, "ensemble(kind, count)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := deco.ParseEnsembleProgram(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestRunEnsembleProgram(t *testing.T) {
	eng, err := deco.NewEngine(deco.WithSeed(1), deco.WithIters(40), deco.WithSearchBudget(400))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunEnsembleProgram(context.Background(), ensembleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "constant" || res.N != 4 {
		t.Fatalf("bad result header: %+v", res)
	}
	if res.MaxScore <= 0 || res.Score < 0 || res.Score > res.MaxScore {
		t.Fatalf("score %v outside [0, %v]", res.Score, res.MaxScore)
	}
	if len(res.Admitted) == 0 {
		t.Fatal("nothing admitted under a generous budget")
	}
	if res.TotalCost > res.Budget {
		t.Fatalf("admitted cost %v exceeds budget %v", res.TotalCost, res.Budget)
	}
	if !res.Feasible {
		t.Fatal("expected a feasible admission under a generous budget")
	}
	if res.StatesEvaluated <= 0 {
		t.Fatal("admission search reported no evaluations")
	}
}

func TestRunEnsembleUnknownKind(t *testing.T) {
	eng, err := deco.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunEnsemble(deco.EnsembleSpec{Kind: "bogus", App: "ligo", N: 2, Budget: 5}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := eng.RunEnsemble(deco.EnsembleSpec{Kind: "constant", App: "nope", N: 2, Budget: 5}); err == nil {
		t.Fatal("unknown app accepted")
	}
}
