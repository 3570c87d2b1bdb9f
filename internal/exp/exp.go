// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation section (§6). Each experiment has a
// runner producing structured results plus a textual rendering of the same
// rows/series the paper reports; cmd/decobench and the repository-level
// benchmarks drive them. Absolute numbers differ from the paper (our
// substrate is a simulator and a software device, not EC2 + a K40), but the
// shapes — who wins, by roughly what factor, where crossovers fall — are
// asserted in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"math/rand"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// Config scales an experiment run. Quick mode shrinks workflows and
// repetition counts so the full suite runs in seconds (for tests); full
// mode approaches the paper's setup (100 repetitions, Montage-1/4/8).
type Config struct {
	Seed int64
	// Runs is the number of simulated executions per configuration
	// (paper: 100).
	Runs int
	// Iters is the Monte-Carlo budget per state evaluation.
	Iters int
	// SearchBudget bounds solver evaluations.
	SearchBudget int
	// Device runs the solver (NewEnv defaults it to device.TwoLevel{}).
	Device device.Device
	// Quick selects reduced workflow sizes.
	Quick bool
}

// QuickConfig returns the test-scale configuration. Under common random
// numbers every state in a search shares one set of world realizations, so
// the world count bounds how finely feasibility boundaries resolve; 80
// worlds keeps quick-scale searches on the same plans as paper scale, and
// the flat evaluation core makes them cheap.
func QuickConfig() Config {
	return Config{Seed: 1, Runs: 12, Iters: 80, SearchBudget: 1600, Quick: true}
}

// FullConfig returns the paper-scale configuration.
func FullConfig() Config {
	return Config{Seed: 1, Runs: 100, Iters: 100, SearchBudget: 4000}
}

// Env is the shared experimental environment: catalog, calibrated metadata,
// estimator and region prices.
type Env struct {
	Cfg    Config
	Cat    *cloud.Catalog
	Meta   *cloud.Metadata
	Est    *estimate.Estimator
	Prices []float64 // US East, catalog order
	// Cache is the environment-wide evaluation cache every solver search in
	// the suite shares (scheduling, ensemble member planning and admission,
	// follow-the-cost decisions). Hits are bit-identical to live evaluation,
	// so sharing never changes a result — only wall-clock time.
	Cache *opt.EvalCache
}

// NewEnv builds the environment with metadata discretized from the
// calibrated ground truth.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.Device == nil {
		cfg.Device = device.TwoLevel{}
	}
	if cfg.Runs < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("exp: Runs and Iters must be >= 1")
	}
	cat := cloud.DefaultCatalog()
	md, err := cloud.MetadataFromTruth(cat, 20, 8000, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	us, err := cat.Region(cloud.USEast)
	if err != nil {
		return nil, err
	}
	prices := make([]float64, len(cat.Types))
	for j, it := range cat.Types {
		prices[j] = us.PricePerHour[it.Name]
	}
	return &Env{Cfg: cfg, Cat: cat, Meta: md, Est: estimate.New(cat, md), Prices: prices,
		Cache: opt.NewEvalCache(0)}, nil
}

// MontageDegrees returns the Montage sizes of the evaluation: degrees
// 1/4/8 at paper scale, 1/2/3 in quick mode.
func (e *Env) MontageDegrees() []int {
	if e.Cfg.Quick {
		return []int{1, 2, 3}
	}
	return []int{1, 4, 8}
}

// Montage generates the Montage workflow of the given degree with the
// environment seed.
func (e *Env) Montage(degree int) (*dag.Workflow, error) {
	return wfgen.Montage(degree, rand.New(rand.NewSource(e.Cfg.Seed+int64(degree))))
}

// meanMakespan returns the mean-duration makespan of w with every task on
// type index idx.
func (e *Env) meanMakespan(w *dag.Workflow, tbl *estimate.Table, idx int) (float64, error) {
	cfg := make(map[string]int, w.Len())
	for _, t := range w.Tasks {
		cfg[t.ID] = idx
	}
	means, err := tbl.MeanDurations(cfg)
	if err != nil {
		return 0, err
	}
	ms, _, err := w.Makespan(means)
	return ms, err
}

// DeadlineAnchors returns Dmin (all tasks on m1.xlarge) and Dmax (all on
// m1.small): the anchors of the tight/medium/loose deadline settings (§6.1).
func (e *Env) DeadlineAnchors(w *dag.Workflow) (dmin, dmax float64, err error) {
	tbl, err := e.Est.BuildTable(w)
	if err != nil {
		return 0, 0, err
	}
	if dmin, err = e.meanMakespan(w, tbl, len(tbl.Types)-1); err != nil {
		return 0, 0, err
	}
	if dmax, err = e.meanMakespan(w, tbl, 0); err != nil {
		return 0, 0, err
	}
	return dmin, dmax, nil
}

// Deadline materializes the named deadline setting.
func (e *Env) Deadline(w *dag.Workflow, setting string) (float64, error) {
	dmin, dmax, err := e.DeadlineAnchors(w)
	if err != nil {
		return 0, err
	}
	switch setting {
	case "tight":
		return 1.5 * dmin, nil
	case "medium":
		return (dmin + dmax) / 2, nil
	case "loose":
		return 0.75 * dmax, nil
	}
	return 0, fmt.Errorf("exp: unknown deadline setting %q", setting)
}

// decoSchedule runs Deco's scheduling search for w under a probabilistic
// deadline and returns the chosen configuration plus its Eq. 1 cost.
func (e *Env) decoSchedule(w *dag.Workflow, tbl *estimate.Table, deadline, pct float64, seed int64) (opt.State, float64, bool, error) {
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: pct, Bound: deadline}}
	eval, err := probir.NewNative(w, tbl, e.Prices, probir.GoalCost, cons, e.Cfg.Iters)
	if err != nil {
		return nil, 0, false, err
	}
	space := opt.NewPackedScheduleSpace(w, eval, tbl, e.Prices, cloud.USEast)
	so := opt.DefaultOptions(e.Cfg.Device)
	so.MaxStates = e.Cfg.SearchBudget
	so.Seed = seed
	res, err := opt.Search(space, so)
	if err != nil {
		return nil, 0, false, err
	}
	return res.Best, res.BestEval.Value, res.Feasible, nil
}

// randFor is a tiny helper for deterministic per-experiment rngs.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
