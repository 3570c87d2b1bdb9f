package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"deco/internal/device"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// SpeedupRow is one workload of the §6.3 parallel-solver comparison. Beam is
// the solver's frontier width: the narrow-beam series (beam 2) keeps batches
// far smaller than the machine, the regime where only iteration-level
// (two-level) parallelism can fill the idle workers. Each device's time is
// the median of the interleaved rounds the row was measured over.
type SpeedupRow struct {
	Workload        string
	Tasks           int
	Beam            int
	Sequential      time.Duration
	Parallel        time.Duration
	TwoLevel        time.Duration
	Speedup         float64 // sequential / parallel
	TwoLevelSpeedup float64 // sequential / two-level
	// Results holds each device's search result, in SpeedupDevices order;
	// the devices must agree on them bit for bit.
	Results []*opt.Result
}

// SpeedupResult reproduces the §6.3.1/§6.3.2 device-speedup measurements:
// the same search run on the sequential (1-thread CPU baseline), the
// state-parallel (one block per state) and the two-level (block per state,
// thread per Monte-Carlo iteration) devices. The paper reports 12X/10X/20X
// for Montage-1/4/8 and 36X/22X/18X for 20/100/1000-task ensembles against
// a 6-core CPU; our ceiling is the host's core count.
type SpeedupResult struct {
	ParallelBlocks int
	Rows           []SpeedupRow
}

// SpeedupDevices are the devices the speedup rows compare, in column order:
// the sequential baseline, the state-parallel comparator and the full
// two-level device.
var SpeedupDevices = []device.Device{device.Sequential{}, stateParallel{}, device.TwoLevel{}}

// stateParallel is the §6.3 state-parallel comparator: blocks run in
// parallel on the two-level device's pool, and each block's threads run in
// order on the worker that owns it, so only state-level parallelism is
// used. It exists to be measured against TwoLevel; the solver never picks it.
type stateParallel struct{ device.TwoLevel }

// Name implements device.Device.
func (d stateParallel) Name() string { return fmt.Sprintf("state-parallel-%d", d.Blocks()) }

// MapBlocks implements device.Device: one unit per block.
func (d stateParallel) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	d.Map(nBlocks, func(b int) {
		for t := 0; t < threads; t++ {
			kernel(b, t)
		}
	})
}

// SpeedupRounds is how many rounds a speedup measurement that reports
// ratios takes. Rounds interleave the devices and rotate their order, so a
// burst of host noise lands on each device alike, and a row reports the
// median per device.
const SpeedupRounds = 5

// timedSearch runs the scheduling search on the given device and returns
// its result and elapsed wall-clock time. beam <= 0 keeps the default
// frontier width.
func (e *Env) timedSearch(nTasks int, dev device.Device, seed int64, beam int) (*opt.Result, time.Duration, int, error) {
	w, err := wfgen.BySize(wfgen.AppMontage, nTasks, randFor(seed))
	if err != nil {
		return nil, 0, 0, err
	}
	tbl, err := e.Est.BuildTable(w)
	if err != nil {
		return nil, 0, 0, err
	}
	deadline, err := e.Deadline(w, "medium")
	if err != nil {
		return nil, 0, 0, err
	}
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: deadline}}
	eval, err := probir.NewNative(w, tbl, e.Prices, probir.GoalCost, cons, e.Cfg.Iters)
	if err != nil {
		return nil, 0, 0, err
	}
	space := opt.NewScheduleSpace(w, eval)
	so := opt.DefaultOptions(dev)
	so.MaxStates = e.Cfg.SearchBudget
	so.Seed = seed
	if beam > 0 {
		so.BeamWidth = beam
	}
	start := time.Now()
	res, err := opt.Search(space, so)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, time.Since(start), w.Len(), nil
}

// speedupRow measures one (size, beam) workload on every device, round by
// round with the device order rotated, and keeps each device's median time
// and its first result.
func (e *Env) speedupRow(n, beam, rounds int) (SpeedupRow, error) {
	nd := len(SpeedupDevices)
	times := make([][]time.Duration, nd)
	results := make([]*opt.Result, nd)
	tasks := 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < nd; k++ {
			d := (r + k) % nd
			res, dt, nt, err := e.timedSearch(n, SpeedupDevices[d], e.Cfg.Seed+51, beam)
			if err != nil {
				return SpeedupRow{}, err
			}
			times[d] = append(times[d], dt)
			if results[d] == nil {
				results[d] = res
			}
			tasks = nt
		}
	}
	med := make([]time.Duration, nd)
	for d, ts := range times {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		med[d] = ts[len(ts)/2]
	}
	name := fmt.Sprintf("montage-%dt", tasks)
	if beam > 0 {
		name = fmt.Sprintf("%s-beam%d", name, beam)
	}
	row := SpeedupRow{
		Workload: name, Tasks: tasks, Beam: beam,
		Sequential: med[0], Parallel: med[1], TwoLevel: med[2],
		Results: results,
	}
	if row.Parallel > 0 {
		row.Speedup = float64(row.Sequential) / float64(row.Parallel)
	}
	if row.TwoLevel > 0 {
		row.TwoLevelSpeedup = float64(row.Sequential) / float64(row.TwoLevel)
	}
	return row, nil
}

// Speedup runs the comparison for the Montage scales: the default-beam
// series, then the narrow-beam (beam 2) series where state-level parallelism
// starves and the two-level device shows its advantage. Each device runs
// every row rounds times (at least once); a caller that only needs the
// results or the table's shape takes one round, one that reads the ratios
// takes SpeedupRounds. It is the one measurement of device wall-clock time
// in the repository.
func (e *Env) Speedup(out io.Writer, rounds int) (*SpeedupResult, error) {
	rounds = max(rounds, 1)
	sizes := []int{30, 120, 400}
	if e.Cfg.Quick {
		sizes = []int{30, 120}
	}
	res := &SpeedupResult{ParallelBlocks: SpeedupDevices[1].Blocks()}
	for _, n := range sizes {
		row, err := e.speedupRow(n, 0, rounds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	narrowSizes := sizes
	if e.Cfg.Quick {
		narrowSizes = sizes[:1]
	}
	for _, n := range narrowSizes {
		row, err := e.speedupRow(n, 2, rounds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if out != nil {
		fmt.Fprintf(out, "Solver speedup: parallel / two-level (%d blocks) vs sequential device, median of %d rounds\n", res.ParallelBlocks, rounds)
		fmt.Fprintf(out, "%-22s %-7s %-12s %-12s %-12s %-9s %s\n", "workload", "tasks", "sequential", "parallel", "twolevel", "speedup", "2L speedup")
		for _, r := range res.Rows {
			fmt.Fprintf(out, "%-22s %-7d %-12s %-12s %-12s %-9s %.1fx\n",
				r.Workload, r.Tasks,
				r.Sequential.Round(time.Millisecond), r.Parallel.Round(time.Millisecond), r.TwoLevel.Round(time.Millisecond),
				fmt.Sprintf("%.1fx", r.Speedup), r.TwoLevelSpeedup)
		}
	}
	return res, nil
}

// OverheadRow is one workflow scale of the optimization-overhead
// measurement.
type OverheadRow struct {
	Tasks      int
	Total      time.Duration
	PerTask    time.Duration
	PerTaskMs  float64
	StatesEval int
}

// OverheadResult reproduces the paper's headline overhead claim: "the
// optimization overhead of Deco takes 4.3-63.17 ms per task for a workflow
// with 20-1000 tasks".
type OverheadResult struct {
	Rows []OverheadRow
}

// Overhead measures end-to-end optimization time per task across workflow
// scales.
func (e *Env) Overhead(out io.Writer) (*OverheadResult, error) {
	sizes := []int{20, 100, 1000}
	if e.Cfg.Quick {
		sizes = []int{20, 100}
	}
	res := &OverheadResult{}
	for _, n := range sizes {
		w, err := wfgen.BySize(wfgen.AppMontage, n, randFor(e.Cfg.Seed+61))
		if err != nil {
			return nil, err
		}
		tbl, err := e.Est.BuildTable(w)
		if err != nil {
			return nil, err
		}
		deadline, err := e.Deadline(w, "medium")
		if err != nil {
			return nil, err
		}
		cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.96, Bound: deadline}}
		eval, err := probir.NewNative(w, tbl, e.Prices, probir.GoalCost, cons, e.Cfg.Iters)
		if err != nil {
			return nil, err
		}
		space := opt.NewScheduleSpace(w, eval)
		so := opt.DefaultOptions(e.Cfg.Device)
		so.MaxStates = e.Cfg.SearchBudget
		so.Seed = e.Cfg.Seed + 62
		start := time.Now()
		sres, err := opt.Search(space, so)
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		perTask := total / time.Duration(w.Len())
		res.Rows = append(res.Rows, OverheadRow{
			Tasks: w.Len(), Total: total, PerTask: perTask,
			PerTaskMs:  float64(perTask) / float64(time.Millisecond),
			StatesEval: sres.Evaluated,
		})
	}
	if out != nil {
		fmt.Fprintln(out, "Optimization overhead per task (paper: 4.3-63.17 ms/task for 20-1000 tasks)")
		fmt.Fprintf(out, "%-7s %-12s %-12s %s\n", "tasks", "total", "ms/task", "states")
		for _, r := range res.Rows {
			fmt.Fprintf(out, "%-7d %-12s %-12.2f %d\n", r.Tasks, r.Total.Round(time.Millisecond), r.PerTaskMs, r.StatesEval)
		}
	}
	return res, nil
}
