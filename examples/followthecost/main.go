// Use case 3 (§3.3): follow-the-cost. Workflows deployed across two EC2
// regions migrate at runtime toward cheaper resources; Deco's per-decision
// generic search is compared against the threshold Heuristic, reproducing
// the methodology of Figure 10 at example scale.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"deco"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/ftc"
	"deco/internal/wfgen"
)

func main() {
	eng, err := deco.NewEngine(deco.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	cat := eng.Catalog()
	est := eng.Estimator()

	mkJobs := func() []*ftc.Job {
		// Six 30-stage funnel workflows (6GB ingest, 20MB intermediates):
		// half start in US East (region 0), half in the pricier Singapore
		// region (region 1). The funnel shape makes migration profitable
		// only after the ingest stage — a runtime decision.
		var jobs []*ftc.Job
		for i := 0; i < 6; i++ {
			w, err := wfgen.Funnel(30, 6000, 20, rand.New(rand.NewSource(int64(100+i))))
			if err != nil {
				log.Fatal(err)
			}
			var tbl *estimate.Table
			if tbl, err = est.BuildTable(w); err != nil {
				log.Fatal(err)
			}
			j, err := ftc.NewJob(w, tbl, i%2, 1, 0)
			if err != nil {
				log.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}

	run := func(name string, o ftc.Optimizer, seed int64) *ftc.Result {
		rt := &ftc.Runtime{Cat: cat, Jobs: mkJobs(), Rng: rand.New(rand.NewSource(seed)), Opt: o}
		res, err := rt.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s total $%.4f (exec $%.4f + migration $%.4f), %d migrations\n",
			name, res.TotalCost, res.ExecCost, res.MigCost, res.Migrations)
		return res
	}

	fmt.Println("follow-the-cost across us-east-1 and ap-southeast-1:")
	deco := run("deco", ftc.NewDecoOptimizer(device.TwoLevel{}, 5), 9)
	heur := run("heuristic", ftc.NewHeuristic(0.5, 1800), 9)
	fmt.Printf("\ndeco / heuristic cost ratio: %.2f\n", deco.TotalCost/heur.TotalCost)

	fmt.Println("\nthreshold sensitivity of the heuristic (Figure 10b):")
	for _, th := range []float64{0.1, 0.5, 0.9} {
		run(fmt.Sprintf("thr=%.0f%%", th*100), ftc.NewHeuristic(th, 1800), 9)
	}
}
