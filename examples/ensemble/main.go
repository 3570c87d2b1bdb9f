// Use case 2 (§3.2): workflow ensembles. A group of prioritized Ligo
// workflows shares a budget; Deco's admission search plus transformation-
// based per-workflow planning is compared against the SPSS baseline,
// reproducing the methodology of Figure 9 at example scale.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"deco"
	"deco/internal/baseline"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/ensemble"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/wfgen"
)

func main() {
	eng, err := deco.NewEngine(deco.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	prices, err := eng.Prices()
	if err != nil {
		log.Fatal(err)
	}
	tblOf := func(w *dag.Workflow) (*estimate.Table, error) {
		return eng.Estimator().BuildTable(w)
	}

	// An ensemble of 8 Ligo workflows with Pareto-distributed sizes and
	// priorities uncorrelated with size.
	rng := rand.New(rand.NewSource(3))
	e, err := ensemble.Generate(ensemble.ParetoUnsorted, wfgen.AppLigo, 8, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := ensemble.DefaultDeadlines(e, tblOf, 1.8, 0.96); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble: %d Ligo workflows, max score %.3f\n\n", len(e.Workflows), e.MaxScore())

	search := opt.DefaultOptions(device.TwoLevel{})
	search.MaxStates = 800
	search.Seed = 3
	decoSpace, err := ensemble.NewSpace(e, 0, ensemble.DecoPlanner(tblOf, prices, 60, search))
	if err != nil {
		log.Fatal(err)
	}
	spssSpace, err := ensemble.NewSpace(e, 0, baseline.SPSSPlanner(tblOf, prices))
	if err != nil {
		log.Fatal(err)
	}

	// Sweep budgets Bgt1..Bgt5 between MinBudget and MaxBudget (§6.1).
	lo, hi := spssSpace.MinMaxBudget()
	fmt.Printf("%-8s %-12s %-12s %-12s\n", "budget", "deco score", "spss score", "deco cost($)")
	for i := 1; i <= 5; i++ {
		budget := lo + (hi-lo)*float64(i-1)/4
		decoSpace.Budget = budget
		spssSpace.Budget = budget

		res, err := opt.Search(decoSpace, opt.Options{
			Maximize: true, MaxStates: 2000, BeamWidth: 10, Patience: 10, Seed: 4,
			Device: device.TwoLevel{},
		})
		if err != nil {
			log.Fatal(err)
		}
		spssState, err := baseline.SPSSAdmit(spssSpace)
		if err != nil {
			log.Fatal(err)
		}
		spssScore := e.Score(ensemble.Admitted(spssState))
		fmt.Printf("Bgt%-5d %-12.3f %-12.3f %-12.2f\n", i, res.BestEval.Value, spssScore, decoSpace.TotalCost(res.Best))
	}
}
