package estimate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"deco/internal/dag"
	"deco/internal/dist"
)

// FlatTable is the dense, index-based form of a Table for one workflow: the
// TimeDist of task i on type j sits at Dists[i*NumTypes+j], so the
// Monte-Carlo evaluation core resolves distributions by integer arithmetic
// with no map lookups. A FlatTable is immutable after construction and safe
// for concurrent use.
type FlatTable struct {
	Types    []string
	TaskIDs  []string
	NumTypes int
	Dists    []*TimeDist // task-major: Dists[task*NumTypes+type]
}

// Flatten resolves the table against an ordered task-ID list (typically
// dag.Flat.IDs), densifying every (task, type) pair.
func (tb *Table) Flatten(taskIDs []string) (*FlatTable, error) {
	ft := &FlatTable{
		Types:    tb.Types,
		TaskIDs:  taskIDs,
		NumTypes: len(tb.Types),
		Dists:    make([]*TimeDist, len(taskIDs)*len(tb.Types)),
	}
	for i, id := range taskIDs {
		row, ok := tb.Dists[id]
		if !ok {
			return nil, fmt.Errorf("estimate: unknown task %q", id)
		}
		if len(row) != ft.NumTypes {
			return nil, fmt.Errorf("estimate: task %q has %d dists for %d types", id, len(row), ft.NumTypes)
		}
		copy(ft.Dists[i*ft.NumTypes:(i+1)*ft.NumTypes], row)
	}
	return ft, nil
}

// Dist returns the distribution of task index i on type index j; indices
// must be in range (hot-path accessor, no error return).
func (ft *FlatTable) Dist(i, j int) *TimeDist { return ft.Dists[i*ft.NumTypes+j] }

// Len is the number of tasks.
func (ft *FlatTable) Len() int { return len(ft.TaskIDs) }

// FlatMeans is the dense mean-duration table of one workflow's flat form:
// Means[i*NumTypes+j] is the mean duration of task i (dag.Flat.IDs order)
// on type j. It is immutable and safe for concurrent use.
type FlatMeans struct {
	flat     *dag.Flat
	NumTypes int
	Means    []float64
}

// Means returns the mean duration of every (task, type) pair of f's tasks,
// resolved once per (table, flat form): the table keeps the last FlatMeans
// it resolved, keyed by f itself, and a workflow that gains a task or edge
// flattens to a new dag.Flat, so a kept entry never outlives the form it
// was resolved for. Concurrent first calls each resolve the same values and
// one of them is kept. Like FlatTable, the result reflects the table as it
// stands; a Table is not modified once built.
func (tb *Table) Means(f *dag.Flat) (*FlatMeans, error) {
	if m := tb.means.Load(); m != nil && m.flat == f {
		return m, nil
	}
	ft, err := tb.Flatten(f.IDs)
	if err != nil {
		return nil, err
	}
	m := &FlatMeans{flat: f, NumTypes: ft.NumTypes, Means: make([]float64, len(ft.Dists))}
	for i, td := range ft.Dists {
		m.Means[i] = td.Mean()
	}
	tb.means.Store(m)
	return m, nil
}

// writeFloats writes float64s to a hash in a fixed binary form.
func writeFloats(w io.Writer, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		w.Write(buf[:])
	}
}

// Fingerprint content-hashes the table: every task's per-type CPU/IO/net
// figures plus the performance histograms behind them. Two tables with equal
// fingerprints produce identical execution-time distributions for every
// (task, type) pair, so Monte-Carlo evaluations against them are
// interchangeable — the property the solver's cross-search evaluation cache
// keys on.
func (tb *Table) Fingerprint() string {
	h := sha256.New()
	for _, typ := range tb.Types {
		io.WriteString(h, typ)
		io.WriteString(h, "|")
	}
	ids := make([]string, 0, len(tb.Dists))
	for id := range tb.Dists {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Performance histograms are shared across tasks (one per type), so hash
	// each distinct one once and refer back by index thereafter.
	seen := map[*dist.Histogram]int{}
	hashHist := func(hst *dist.Histogram) {
		if hst == nil {
			io.WriteString(h, "nil;")
			return
		}
		if i, ok := seen[hst]; ok {
			fmt.Fprintf(h, "ref=%d;", i)
			return
		}
		seen[hst] = len(seen)
		io.WriteString(h, "hist;")
		writeFloats(h, hst.Edges...)
		writeFloats(h, hst.Probs...)
	}
	for _, id := range ids {
		io.WriteString(h, id)
		for _, td := range tb.Dists[id] {
			writeFloats(h, td.CPUSeconds, td.IOMB, td.NetMB, td.XferMB, td.XferCostUSD)
			hashHist(td.seq)
			hashHist(td.net)
			hashHist(td.xnet)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
