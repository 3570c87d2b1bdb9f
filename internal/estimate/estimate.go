// Package estimate implements the task execution-time model Deco uses when
// translating WLog programs to the probabilistic IR (§5.1): given a task's
// input size, reference CPU time and output size, its execution time on an
// instance type is the sum of CPU, I/O and network time on that instance
// (the approach of Yu et al. the paper adopts). CPU time is deterministic
// (scaled by the instance's ECU factor); I/O and network times divide the
// data volumes by performance values drawn from the calibrated histograms,
// so the estimated task time is itself a probability distribution.
package estimate

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dist"
)

// Estimator derives execution-time distributions from the cloud metadata.
type Estimator struct {
	Cat  *cloud.Catalog
	Meta *cloud.Metadata
	// CPUScale scales CPU time to account for multi-core effects (the
	// scaling factor of Pietri et al. cited in §5.1). 1.0 = no scaling.
	CPUScale float64
	// Transfer, when non-nil, prices data gravity into the table: the
	// workflow's source inputs live in Transfer.From and must cross to the
	// execution region, so source tasks gain a stochastic cross-region
	// transfer time plus a deterministic egress cost.
	Transfer *Transfer
}

// Transfer describes one cross-region data-gravity configuration, derived
// from a transfer(src, dst) WLog fact against a catalog.
type Transfer struct {
	From, To string
	// PriceGB is the USD price per GB out of From to To
	// (Region.NetPricePerGB resolved once).
	PriceGB float64
	// Net is the calibrated cross-region bandwidth histogram in MB/s.
	Net *dist.Histogram
}

// New returns an estimator over the given catalog and metadata store.
func New(cat *cloud.Catalog, meta *cloud.Metadata) *Estimator {
	return &Estimator{Cat: cat, Meta: meta, CPUScale: 1.0}
}

// TimeDist is the execution-time distribution of one task on one instance
// type: a deterministic CPU component plus stochastic I/O and network
// components.
type TimeDist struct {
	CPUSeconds float64 // already scaled by ECU
	IOMB       float64 // data through the local disk
	NetMB      float64 // data over the network

	// XferMB is source input data that must cross regions before the task
	// can run (zero unless the estimator has a Transfer configured and the
	// task is a workflow source); XferCostUSD is the deterministic egress
	// price of moving it.
	XferMB      float64
	XferCostUSD float64

	seq  *dist.Histogram // sequential I/O MB/s
	net  *dist.Histogram // network MB/s
	xnet *dist.Histogram // cross-region MB/s (nil without a transfer)

	invSeqMean  float64 // E[1/seq], cached
	invNetMean  float64 // E[1/net], cached
	invXNetMean float64 // E[1/xnet], cached
}

// invMean returns E[1/X] for a histogram, guarding against non-positive
// bins (performance histograms should be strictly positive).
func invMean(h *dist.Histogram) (float64, error) {
	s := 0.0
	for i, p := range h.Probs {
		m := h.Mid(i)
		if m <= 0 {
			return 0, fmt.Errorf("estimate: non-positive performance bin %v", m)
		}
		s += p / m
	}
	return s, nil
}

// TaskTime builds the execution-time distribution of task t on the named
// instance type. The data volumes follow the paper's model: all input and
// output bytes pass through local disk (I/O component) and input bytes
// additionally arrive over the network (from S3 or a parent task's
// instance; co-location discounts are applied by the simulator, not here,
// because the estimate must be placement-independent).
func (e *Estimator) TaskTime(t *dag.Task, typ string) (*TimeDist, error) {
	it, err := e.Cat.Type(typ)
	if err != nil {
		return nil, err
	}
	seq := e.Meta.SeqIO[typ]
	net := e.Meta.Net[typ]
	if seq == nil || net == nil {
		return nil, fmt.Errorf("estimate: no metadata for type %q", typ)
	}
	scale := e.CPUScale
	if scale == 0 {
		scale = 1
	}
	td := &TimeDist{
		CPUSeconds: t.CPUSeconds / it.ECU * scale,
		IOMB:       t.InputMB() + t.OutputMB(),
		NetMB:      t.InputMB(),
		seq:        seq,
		net:        net,
	}
	if td.invSeqMean, err = invMean(seq); err != nil {
		return nil, err
	}
	if td.invNetMean, err = invMean(net); err != nil {
		return nil, err
	}
	return td, nil
}

// Sample draws one execution time in seconds. The cross-region transfer
// draw comes last so tables without a transfer configured consume the rng
// exactly as before — the common-random-numbers contract is append-only.
func (td *TimeDist) Sample(rng *rand.Rand) float64 {
	t := td.CPUSeconds
	if td.IOMB > 0 {
		t += td.IOMB / td.seq.Sample(rng)
	}
	if td.NetMB > 0 {
		t += td.NetMB / td.net.Sample(rng)
	}
	if td.XferMB > 0 {
		t += td.XferMB / td.xnet.Sample(rng)
	}
	return t
}

// Mean returns the exact mean of the distribution:
// cpu + io*E[1/seq] + net*E[1/net] + xfer*E[1/xnet].
func (td *TimeDist) Mean() float64 {
	return td.CPUSeconds + td.IOMB*td.invSeqMean + td.NetMB*td.invNetMean + td.XferMB*td.invXNetMean
}

// Table precomputes the TimeDist of every (task, type) pair of a workflow,
// indexed by task ID then catalog type index. This is the exetime(Tid,Vid,T)
// fact table of the probabilistic IR.
type Table struct {
	Types []string
	Dists map[string][]*TimeDist // task ID -> per-type distribution

	means atomic.Pointer[FlatMeans] // the last FlatMeans resolved (see Means)
}

// BuildTable precomputes execution-time distributions for all tasks of w on
// all catalog types. With a Transfer configured, workflow sources (tasks
// with no parents — their inputs come from storage in the remote region,
// not from a parent's instance) additionally pay the cross-region transfer
// time and egress cost on every type.
func (e *Estimator) BuildTable(w *dag.Workflow) (*Table, error) {
	if e.Transfer != nil {
		if e.Transfer.Net == nil {
			return nil, fmt.Errorf("estimate: transfer %s->%s has no bandwidth model", e.Transfer.From, e.Transfer.To)
		}
		if _, err := invMean(e.Transfer.Net); err != nil {
			return nil, err
		}
	}
	tbl := &Table{Types: e.Cat.TypeNames(), Dists: make(map[string][]*TimeDist, w.Len())}
	for _, t := range w.Tasks {
		row := make([]*TimeDist, len(tbl.Types))
		for j, typ := range tbl.Types {
			td, err := e.TaskTime(t, typ)
			if err != nil {
				return nil, err
			}
			if e.Transfer != nil && len(w.Parents(t.ID)) == 0 && t.InputMB() > 0 {
				td.XferMB = t.InputMB()
				td.XferCostUSD = t.InputMB() / 1024 * e.Transfer.PriceGB
				td.xnet = e.Transfer.Net
				if td.invXNetMean, err = invMean(td.xnet); err != nil {
					return nil, err
				}
			}
			row[j] = td
		}
		tbl.Dists[t.ID] = row
	}
	return tbl, nil
}

// ExpandSpot returns a new table with one virtual "<base>:spot" column per
// entry of spots appended, in order, after the on-demand columns. Spot
// columns share the base column's TimeDist pointers — a spot instance runs
// the task with identical performance, it just prices (and survives)
// differently; the market semantics attach to the column index in the
// probabilistic IR, not here.
func (tb *Table) ExpandSpot(spots []string) (*Table, error) {
	if len(spots) == 0 {
		return tb, nil
	}
	baseIdx := make(map[string]int, len(tb.Types))
	for j, typ := range tb.Types {
		baseIdx[typ] = j
	}
	out := &Table{
		Types: append([]string(nil), tb.Types...),
		Dists: make(map[string][]*TimeDist, len(tb.Dists)),
	}
	seen := make(map[string]bool, len(spots))
	cols := make([]int, 0, len(spots))
	for _, base := range spots {
		j, ok := baseIdx[base]
		if !ok {
			return nil, fmt.Errorf("estimate: spot type %q not in the table", base)
		}
		if cloud.IsSpotName(base) {
			return nil, fmt.Errorf("estimate: spot type %q already a spot name", base)
		}
		if seen[base] {
			return nil, fmt.Errorf("estimate: duplicate spot type %q", base)
		}
		seen[base] = true
		cols = append(cols, j)
		out.Types = append(out.Types, cloud.SpotName(base))
	}
	for id, row := range tb.Dists {
		nrow := make([]*TimeDist, 0, len(out.Types))
		nrow = append(nrow, row...)
		for _, j := range cols {
			nrow = append(nrow, row[j])
		}
		out.Dists[id] = nrow
	}
	return out, nil
}

// Dist returns the distribution of the given task on type index j.
func (tb *Table) Dist(taskID string, j int) (*TimeDist, error) {
	row, ok := tb.Dists[taskID]
	if !ok {
		return nil, fmt.Errorf("estimate: unknown task %q", taskID)
	}
	if j < 0 || j >= len(row) {
		return nil, fmt.Errorf("estimate: type index %d out of range", j)
	}
	return row[j], nil
}

// MeanDurations returns the mean duration of every task under the given
// per-task type assignment (task ID -> type index).
func (tb *Table) MeanDurations(config map[string]int) (map[string]float64, error) {
	out := make(map[string]float64, len(config))
	for id, j := range config {
		td, err := tb.Dist(id, j)
		if err != nil {
			return nil, err
		}
		out[id] = td.Mean()
	}
	return out, nil
}

// SampleDurations draws one world: a concrete duration for every task under
// the given assignment. Tasks consume the rng in sorted-ID order, so the
// same seed reproduces the same world (ranging over the map directly would
// randomize the consumption order run to run). Hot paths use the flat
// common-random-number core in package probir instead; this map-keyed form
// remains for tooling and tests.
func (tb *Table) SampleDurations(config map[string]int, rng *rand.Rand) (map[string]float64, error) {
	ids := make([]string, 0, len(config))
	for id := range config {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make(map[string]float64, len(config))
	for _, id := range ids {
		td, err := tb.Dist(id, config[id])
		if err != nil {
			return nil, err
		}
		out[id] = td.Sample(rng)
	}
	return out, nil
}
