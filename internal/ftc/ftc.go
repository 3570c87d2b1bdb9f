// Package ftc implements the follow-the-cost use case (§3.3): multiple
// workflows run across multiple cloud regions with different prices; at
// runtime, partially-executed workflows may migrate to a cheaper region,
// paying the networking cost of moving their live intermediate data. The
// optimization minimizes the total monetary cost (execution + migration,
// Eq. 7-9) subject to each workflow's deterministic deadline (Eq. 10).
//
// The runtime executes tasks with realized (sampled) durations; after every
// completed task the active optimizer may revise the placement. Deco's
// optimizer runs the generic search over the joint region-assignment space
// on every decision point (its device-accelerated solver is fast enough —
// the "light-weight characteristic" of §3.3); the Heuristic baseline makes
// an offline plan from price differences and re-optimizes only when the
// monitored execution time drifts from the estimate by more than a
// threshold, stalling the workflow for its (slow) re-optimization each time
// (§6.3.3: "the optimization takes a long time, which cannot catch up with
// the workflow executions").
package ftc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
)

// Job is one workflow executing in the multi-cloud runtime. Tasks execute in
// topological order (the runtime serializes each workflow; the cross-region
// cost tradeoff is unaffected by intra-workflow parallelism).
type Job struct {
	W   *dag.Workflow
	Tbl *estimate.Table
	// Region is the current data-center index into the catalog's regions.
	Region int
	// TypeIndex is the instance type used for the job's tasks.
	TypeIndex int
	// DeadlineSec is the deterministic deadline on total elapsed time.
	DeadlineSec float64

	order   []string
	next    int
	Elapsed float64
	// ExecCost and MigCost accumulate Eq. 8 and Eq. 9.
	ExecCost float64
	MigCost  float64
	// Migrations counts region changes.
	Migrations int
	// lastDrift is |actual-estimated|/estimated of the last completed task,
	// which the Heuristic's threshold rule monitors.
	lastDrift float64
}

// NewJob prepares a job.
func NewJob(w *dag.Workflow, tbl *estimate.Table, region, typeIndex int, deadlineSec float64) (*Job, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Job{W: w, Tbl: tbl, Region: region, TypeIndex: typeIndex,
		DeadlineSec: deadlineSec, order: order}, nil
}

// Done reports whether all tasks have completed.
func (j *Job) Done() bool { return j.next >= len(j.order) }

// RemainingMeanSec is the expected serialized time of the unfinished tasks.
func (j *Job) RemainingMeanSec() (float64, error) {
	sum := 0.0
	for _, id := range j.order[j.next:] {
		td, err := j.Tbl.Dist(id, j.TypeIndex)
		if err != nil {
			return 0, err
		}
		sum += td.Mean()
	}
	return sum, nil
}

// LiveDataMB is the intermediate data that must move if the job migrates:
// outputs of finished tasks consumed by unfinished tasks, plus the initial
// inputs of unfinished tasks (refetched from the source region's storage).
func (j *Job) LiveDataMB() float64 {
	finished := map[string]bool{}
	for _, id := range j.order[:j.next] {
		finished[id] = true
	}
	produced := map[string]string{}
	for _, t := range j.W.Tasks {
		for _, f := range t.Outputs {
			produced[f.Name] = t.ID
		}
	}
	seen := map[string]bool{}
	total := 0.0
	for _, id := range j.order[j.next:] {
		for _, f := range j.W.Task(id).Inputs {
			if seen[f.Name] {
				continue
			}
			p, ok := produced[f.Name]
			if ok && !finished[p] {
				continue // will be produced after migration; nothing to move
			}
			seen[f.Name] = true
			total += f.SizeMB
		}
	}
	return total
}

// Runtime drives the multi-cloud execution.
type Runtime struct {
	Cat  *cloud.Catalog
	Jobs []*Job
	Rng  *rand.Rand
	// Opt decides placements after every completed task.
	Opt Optimizer
}

// Optimizer decides target regions for all jobs at a decision point. It
// returns the region per job and the stall (seconds) each job pays for the
// decision process itself.
type Optimizer interface {
	Name() string
	Decide(rt *Runtime) (regions []int, stallSec []float64, err error)
}

// Step executes one task of every unfinished job and then lets the
// optimizer revise placements (applying migrations). It returns whether any
// job is still running.
func (rt *Runtime) Step() (bool, error) {
	active := false
	for _, j := range rt.Jobs {
		if j.Done() {
			continue
		}
		active = true
		id := j.order[j.next]
		td, err := j.Tbl.Dist(id, j.TypeIndex)
		if err != nil {
			return false, err
		}
		actual := td.Sample(rt.Rng)
		mean := td.Mean()
		if mean > 0 {
			d := (actual - mean) / mean
			if d < 0 {
				d = -d
			}
			j.lastDrift = d
		}
		price := rt.price(j.Region, j.TypeIndex)
		j.Elapsed += actual
		j.ExecCost += actual / 3600 * price
		j.next++
	}
	if !active {
		return false, nil
	}
	if err := rt.decide(); err != nil {
		return false, err
	}
	return true, nil
}

// decide asks the optimizer for target placements and applies stalls and
// migrations.
func (rt *Runtime) decide() error {
	regions, stalls, err := rt.Opt.Decide(rt)
	if err != nil {
		return err
	}
	if len(regions) != len(rt.Jobs) {
		return fmt.Errorf("ftc: optimizer returned %d regions for %d jobs", len(regions), len(rt.Jobs))
	}
	for i, j := range rt.Jobs {
		if stalls != nil && stalls[i] > 0 {
			j.Elapsed += stalls[i]
			// The stalled instance stays up: its idle time is billed.
			j.ExecCost += stalls[i] / 3600 * rt.price(j.Region, j.TypeIndex)
		}
		if j.Done() || regions[i] == j.Region {
			continue
		}
		if regions[i] < 0 || regions[i] >= len(rt.Cat.Regions) {
			return fmt.Errorf("ftc: region %d out of range", regions[i])
		}
		if err := rt.migrate(j, regions[i]); err != nil {
			return err
		}
	}
	return nil
}

func (rt *Runtime) price(region, typeIndex int) float64 {
	return rt.Cat.Regions[region].PricePerHour[rt.Cat.Types[typeIndex].Name]
}

// migrate moves job j to the target region, charging Eq. 9's networking
// cost and the transfer time over the cross-region link.
func (rt *Runtime) migrate(j *Job, target int) error {
	data := j.LiveDataMB()
	src := rt.Cat.Regions[j.Region]
	priceGB := src.NetPricePerGB[rt.Cat.Regions[target].Name]
	j.MigCost += data / 1024 * priceGB
	if data > 0 {
		bw := rt.Cat.Perf.CrossRegionNet.Sample(rt.Rng)
		if bw < 1e-6 {
			bw = 1e-6
		}
		j.Elapsed += data / bw
	}
	j.Region = target
	j.Migrations++
	return nil
}

// Run drives the runtime to completion and returns the summary. The first
// decision point is *before* any task executes — the offline planning stage
// of both optimizers (§3.3: "At the offline stage, we ... determine the
// plan of migrating the workflows from their initial deployed data center").
func (rt *Runtime) Run() (*Result, error) {
	if err := rt.decide(); err != nil {
		return nil, err
	}
	for {
		active, err := rt.Step()
		if err != nil {
			return nil, err
		}
		if !active {
			break
		}
	}
	res := &Result{Optimizer: rt.Opt.Name()}
	for _, j := range rt.Jobs {
		res.ExecCost += j.ExecCost
		res.MigCost += j.MigCost
		res.Migrations += j.Migrations
		if j.Elapsed > j.DeadlineSec && j.DeadlineSec > 0 {
			res.DeadlineMisses++
		}
	}
	res.TotalCost = res.ExecCost + res.MigCost
	return res, nil
}

// Result summarizes one follow-the-cost run.
type Result struct {
	Optimizer      string
	ExecCost       float64
	MigCost        float64
	TotalCost      float64
	Migrations     int
	DeadlineMisses int
}

// Space is the region-assignment search space Deco's generic search
// explores at each decision point: state[i] is job i's target region. The
// space snapshots the runtime on first evaluation (remaining work, live
// data, prices), so it must be built fresh per decision point — which the
// optimizers do; the fingerprint covers the snapshot so cache entries from
// different decision points never collide.
type Space struct {
	rt *Runtime

	compileOnce sync.Once
	compileErr  error
	jobs        []jobSnapshot
	meanBW      float64
	nRegions    int
}

// jobSnapshot is one job's decision-point state flattened for the kernel
// path: everything Evaluate reads, with the per-target price and network
// rows precomputed so scoring a state is pure arithmetic over slices.
type jobSnapshot struct {
	done     bool
	region   int
	rem      float64 // expected remaining serialized seconds
	live     float64 // MB that must move on migration
	elapsed  float64
	deadline float64
	price    []float64 // hourly price per target region for the job's type
	netGB    []float64 // source region's per-GB transfer price per target
}

// NewSpace builds the region-assignment space over a runtime's jobs.
func NewSpace(rt *Runtime) *Space { return &Space{rt: rt} }

// compile snapshots the runtime once: per-job remaining means, live data,
// and dense price/network rows replace the map lookups the evaluation used
// to redo for every state.
func (s *Space) compile() error {
	s.compileOnce.Do(func() {
		rt := s.rt
		s.meanBW = rt.Cat.Perf.CrossRegionNet.Mean()
		s.nRegions = len(rt.Cat.Regions)
		s.jobs = make([]jobSnapshot, len(rt.Jobs))
		for i, j := range rt.Jobs {
			snap := jobSnapshot{done: j.Done(), region: j.Region,
				elapsed: j.Elapsed, deadline: j.DeadlineSec}
			if !snap.done {
				rem, err := j.RemainingMeanSec()
				if err != nil {
					s.compileErr = err
					return
				}
				snap.rem = rem
				snap.live = j.LiveDataMB()
				snap.price = make([]float64, s.nRegions)
				snap.netGB = make([]float64, s.nRegions)
				src := rt.Cat.Regions[j.Region]
				for r := range rt.Cat.Regions {
					snap.price[r] = rt.price(r, j.TypeIndex)
					snap.netGB[r] = src.NetPricePerGB[rt.Cat.Regions[r].Name]
				}
			}
			s.jobs[i] = snap
		}
	})
	return s.compileErr
}

// Initial is the search's start state: keep every job where it is.
func (s *Space) Initial() opt.State {
	st := make(opt.State, len(s.rt.Jobs))
	for i, j := range s.rt.Jobs {
		st[i] = j.Region
	}
	return st
}

// Starts implements opt.Space.
func (s *Space) Starts() []opt.State { return []opt.State{s.Initial()} }

// Neighbors implements opt.Space: move one unfinished job to one other
// region (a task-granularity migration decision, Gmn of §3.3).
func (s *Space) Neighbors(st opt.State) []opt.Transform {
	var out []opt.Transform
	all := opt.Indices(len(st))
	for i, j := range s.rt.Jobs {
		if j.Done() {
			continue
		}
		for r := range s.rt.Cat.Regions {
			if r != st[i] {
				out = append(out, opt.Transform{Tasks: all[i : i+1], Step: r - st[i]})
			}
		}
	}
	return out
}

// accumulate scores one placement over the compiled snapshot, writing the
// three figures (cost sum, violation sum, infeasible-job count) into out.
// Per-job arithmetic and fold order match the original per-state evaluation
// exactly, so every path built on it — Evaluate, the kernel on any device —
// produces bit-identical results.
func (s *Space) accumulate(st opt.State, out []float64) error {
	if len(st) != len(s.jobs) {
		return fmt.Errorf("ftc: state length %d, want %d", len(st), len(s.jobs))
	}
	out[0], out[1], out[2] = 0, 0, 0
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.done {
			continue
		}
		target := st[i]
		if target < 0 || target >= s.nRegions {
			return fmt.Errorf("ftc: region %d out of range", target)
		}
		cost := j.rem / 3600 * j.price[target]
		migTime := 0.0
		if target != j.region {
			cost += j.live / 1024 * j.netGB[target]
			if j.live > 0 && s.meanBW > 0 {
				migTime = j.live / s.meanBW
			}
		}
		out[0] += cost
		if j.deadline > 0 {
			projected := j.elapsed + migTime + j.rem
			if projected > j.deadline {
				out[1] += (projected - j.deadline) / j.deadline
				out[2]++
			}
		}
	}
	return nil
}

// reduce turns the accumulated figures into an Evaluation.
func (s *Space) reduce(sums []float64) *probir.Evaluation {
	return &probir.Evaluation{Value: sums[0], Violation: sums[1], Feasible: sums[2] == 0}
}

// Describe implements opt.Space: the placement kernel and the space's
// fingerprint. The objective is deterministic, so the seed plays no part.
func (s *Space) Describe(context.Context, int64) opt.Descriptor {
	return opt.Descriptor{Kernel: s.Kernel, Fingerprint: s.Fingerprint()}
}

// Evaluate scores one placement directly — the test oracle of the kernel:
// Eq. 7's expected remaining cost plus migration charges, with Eq. 10's
// deterministic deadline per job.
func (s *Space) Evaluate(st opt.State) (*probir.Evaluation, error) {
	if err := s.compile(); err != nil {
		return nil, err
	}
	var sums [3]float64
	if err := s.accumulate(st, sums[:]); err != nil {
		return nil, err
	}
	return s.reduce(sums[:]), nil
}

// Kernel builds the placement kernel of one state. The objective is
// deterministic — no Monte-Carlo worlds — so the kernel is a single world of
// three figures.
func (s *Space) Kernel(st opt.State) (probir.WorldKernel, error) {
	if err := s.compile(); err != nil {
		return nil, err
	}
	if len(st) != len(s.jobs) {
		return nil, fmt.Errorf("ftc: state length %d, want %d", len(st), len(s.jobs))
	}
	return &placementKernel{sp: s, st: st}, nil
}

// Fingerprint is a content hash of the full decision-point snapshot —
// every job's progress, placement, prices and deadline plus the mean
// cross-region bandwidth — so cache entries are shared exactly between
// searches seeing identical runtime state.
func (s *Space) Fingerprint() string {
	if s.compile() != nil {
		return "" // unsnapshottable runtime: cannot vouch for identity
	}
	h := sha256.New()
	var buf [8]byte
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putF(s.meanBW)
	putF(float64(s.nRegions))
	putF(float64(len(s.jobs)))
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.done {
			putF(math.NaN())
			continue
		}
		putF(float64(j.region))
		putF(j.rem)
		putF(j.live)
		putF(j.elapsed)
		putF(j.deadline)
		for r := 0; r < s.nRegions; r++ {
			putF(j.price[r])
			putF(j.netGB[r])
		}
	}
	return fmt.Sprintf("ftc:%x", h.Sum(nil))
}

// placementKernel is the deterministic single-world kernel of the placement
// space: figures are (cost sum, violation sum, infeasible-job count).
type placementKernel struct {
	sp *Space
	st opt.State
}

func (k *placementKernel) Worlds() int { return 1 }
func (k *placementKernel) Width() int  { return 3 }

func (k *placementKernel) Sample(lo, hi int, out []float64) error {
	for r := range hi - lo {
		if err := k.sp.accumulate(k.st, out[3*r:3*r+3]); err != nil {
			return err
		}
	}
	return nil
}

func (k *placementKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	return k.sp.reduce(sums), nil
}
