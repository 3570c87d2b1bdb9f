package probir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"deco/internal/dag"
	"deco/internal/estimate"
)

// This file implements the common-random-number (CRN) evaluation core. A
// Native program is compiled once per search into a Program: the workflow's
// flat index form (dag.Flat), the dense per-(task, type) time-distribution
// table (estimate.FlatTable), and a lazily-filled duration matrix
// rows[task][type][iteration]. Duration draws are keyed by (task, type,
// iteration) — NOT by search state — so every state evaluated within one
// search observes the same world realizations. That is the CRN determinism
// contract:
//
//   - Evaluating a neighbor state that reassigns Δ tasks resolves only the Δ
//     missing rows (O(Δ·worlds) sampling instead of O(tasks·worlds)).
//   - State-vs-state comparisons see the same randomness, cutting the
//     Monte-Carlo variance of score differences.
//   - Results depend only on (program, base seed, configuration); kernels
//     built from a Program draw nothing at Sample time, so devices may run
//     worlds in any order or in parallel and fold bit-identically.

// crnSeed derives the rng seed of one (task, type) duration row from the
// search-level base seed (splitmix64-style finalizer over a distinct stream
// constant from MixSeed, so CRN rows never collide with state-keyed world
// substreams).
func crnSeed(base int64, stream int) int64 {
	z := uint64(base) ^ 0x6A09E667F3BCC909
	z += uint64(stream+1) * 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Program is a Native program compiled for one CRN base seed: the flat DAG,
// the dense distribution table, and the shared duration matrix. Rows are
// filled lazily the first time a configuration needs them; a filled row is
// published through an atomic pointer, so the warm path — every row already
// sampled, the steady state of a search — is entirely lock-free and never
// serializes behind another goroutine filling rows for a different
// configuration. Only the fill itself takes fillMu (double-checked, so two
// goroutines racing to the same missing row sample it once). The scratch and
// flag pools serve per-world buffers so device threads evaluating worlds
// concurrently never allocate.
type Program struct {
	flat   *dag.Flat
	ft     *estimate.FlatTable
	base   int64
	iters  int
	nTypes int

	// markets, when non-nil, holds one MarketSpec per type column; spot
	// columns fill a paired cost row alongside the duration row from the same
	// rng stream (market.go).
	markets []MarketSpec

	// negative records that some filled duration is negative or NaN. Finish
	// times can then fall along an edge, so a makespan rescan must visit
	// every task rather than only the sinks. It is set before the row is
	// published.
	negative atomic.Bool

	fillMu sync.Mutex
	rows   []atomic.Pointer[[]float64] // rows[task*nTypes+type][iteration], lazily filled
	// costRows parallels rows for spot columns only: costRows[ri][it] is the
	// realized cost of the (task, spot type) pair in world it. On-demand
	// entries stay nil — their world cost is duration/3600·price, computed in
	// the kernel. A cost row is always published before its duration row, so
	// any reader that observed the duration row can load the cost row
	// lock-free.
	costRows []atomic.Pointer[[]float64]
	// rng, guarded by fillMu, is reseeded for every row fill: reseeding
	// yields exactly a fresh source's stream without allocating one.
	rng *rand.Rand

	// orderOnce/order cache the decisive-world-first permutation (order.go):
	// a pure function of (program content, base), immutable once built.
	orderOnce sync.Once
	order     []int32

	blocks sync.Pool // *blockScratch: per-chunk kernel scratch
}

// epochMarks is a reusable mark buffer that resets in O(1): an entry is
// marked iff marks[i] == epoch, so bumping the epoch unmarks everything.
// The delta makespan pass marks the tasks a moved parent finish touched.
type epochMarks struct {
	epoch uint32
	marks []uint32
}

// next unmarks every entry, growing the buffer to at least n entries, and
// returns the fresh epoch, clearing the buffer explicitly on the (once per
// 4G calls) wrap so stale marks can never alias a live epoch.
func (e *epochMarks) next(n int) uint32 {
	if len(e.marks) < n {
		e.marks = make([]uint32, n)
		e.epoch = 0
	}
	e.epoch++
	if e.epoch == 0 {
		clear(e.marks)
		e.epoch = 1
	}
	return e.epoch
}

// blockScratch is one kernel call's working memory for a chunk of m worlds
// over n tasks: chunk-major finish times (n·m) and per-row makespan, cost,
// argmax and delta bookkeeping. Pooled per Program and grown on demand, so
// device threads evaluating chunks concurrently never allocate.
type blockScratch struct {
	finish                      []float64 // n·m, task t row r at t*m+r
	ms, cost, tmp, start, chMax []float64 // m
	amax, chArg, rescan         []int32   // m
	amaxHit                     []bool    // m
	marks                       epochMarks
}

// block checks out a scratch sized for a chunk of m worlds; return it to
// p.blocks when the call is done.
func (p *Program) block(m int) *blockScratch {
	bs := p.blocks.Get().(*blockScratch)
	if cap(bs.ms) < m {
		bs.ms, bs.cost, bs.tmp = make([]float64, m), make([]float64, m), make([]float64, m)
		bs.start, bs.chMax = make([]float64, m), make([]float64, m)
		bs.amax, bs.chArg, bs.rescan = make([]int32, m), make([]int32, m), make([]int32, m)
		bs.amaxHit = make([]bool, m)
	}
	return bs
}

// scratch returns the chunk-major finish times of n tasks over m rows.
func (bs *blockScratch) scratch(n, m int) []float64 {
	if cap(bs.finish) < n*m {
		bs.finish = make([]float64, n*m)
	}
	return bs.finish[:n*m]
}

func newProgram(flat *dag.Flat, ft *estimate.FlatTable, base int64, iters int, markets []MarketSpec) *Program {
	p := &Program{
		flat:    flat,
		ft:      ft,
		base:    base,
		iters:   iters,
		nTypes:  ft.NumTypes,
		markets: markets,
		rows:    make([]atomic.Pointer[[]float64], flat.Len()*ft.NumTypes),
	}
	if markets != nil {
		p.costRows = make([]atomic.Pointer[[]float64], flat.Len()*ft.NumTypes)
	}
	p.blocks.New = func() any { return new(blockScratch) }
	return p
}

// Rows resolves one configuration against the duration matrix, filling any
// missing (task, type) rows: row[it] is the task's sampled duration in world
// it, drawn from an rng seeded by crnSeed(base, task*nTypes+type) and
// consumed in iteration order. The returned per-task slices are shared and
// immutable once filled; callers must not modify them.
func (p *Program) Rows(config []int) [][]float64 {
	p.fill(config)
	out := make([][]float64, len(config))
	for i, j := range config {
		out[i] = p.row(i, j)
	}
	return out
}

// row returns the filled duration row of task i on type j.
func (p *Program) row(i, j int) []float64 { return *p.rows[i*p.nTypes+j].Load() }

// costRow returns the paired per-world cost row of task i on type j, or nil
// when j is not a spot offering (deterministic pricing — duration/3600·
// price). The row must have been filled; fill publishes a spot column's
// cost row before its duration row, so it is present here lock-free.
func (p *Program) costRow(i, j int) []float64 {
	if p.costRows == nil || !p.markets[j].Spot {
		return nil
	}
	return *p.costRows[i*p.nTypes+j].Load()
}

// fill fills every missing (task, type) row of a configuration. A fully
// warm configuration takes no locks and allocates nothing.
func (p *Program) fill(config []int) {
	warm := true
	for i, j := range config {
		if p.rows[i*p.nTypes+j].Load() == nil {
			warm = false
			break
		}
	}
	if warm {
		return
	}
	p.fillMu.Lock()
	defer p.fillMu.Unlock()
	for i, j := range config {
		ri := i*p.nTypes + j
		if p.rows[ri].Load() != nil { // filled already, or while we waited
			continue
		}
		row := make([]float64, p.iters)
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(0))
		}
		rng := p.rng
		rng.Seed(crnSeed(p.base, ri))
		td := p.ft.Dist(i, j)
		if p.markets != nil && p.markets[j].Spot {
			costRow := make([]float64, p.iters)
			fillSpotRow(td, p.markets[j], rng, row, costRow)
			p.costRows[ri].Store(&costRow)
		} else {
			for it := range row {
				row[it] = td.Sample(rng)
			}
		}
		for _, d := range row {
			if !(d >= 0) {
				p.negative.Store(true)
				break
			}
		}
		p.rows[ri].Store(&row)
	}
}

// maxPrograms bounds the per-Native program cache. A search uses a single
// base seed, so this only needs to cover a handful of concurrent or
// successive searches (e.g. runtime replans) over the same Native.
const maxPrograms = 8

// progEntry is one cached Program plus its last-use tick for LRU eviction.
type progEntry struct {
	p    *Program
	tick uint64
}

// program returns the compiled Program for the given CRN base, building and
// caching it on first use. When the cache is full the least-recently-used
// base is evicted — deterministically, and never the base just touched, so
// a running search's duration matrix is only rebuilt if maxPrograms other
// searches have since used this Native.
func (n *Native) program(base int64) *Program {
	n.progMu.Lock()
	defer n.progMu.Unlock()
	n.progTick++
	if e, ok := n.progs[base]; ok {
		e.tick = n.progTick
		return e.p
	}
	if n.progs == nil {
		n.progs = make(map[int64]*progEntry)
	}
	if len(n.progs) >= maxPrograms {
		var victim int64
		oldest := uint64(math.MaxUint64)
		for k, e := range n.progs {
			if e.tick < oldest {
				oldest = e.tick
				victim = k
			}
		}
		delete(n.progs, victim)
	}
	p := newProgram(n.flat, n.ftab, base, n.Iters, n.Markets)
	n.progs[base] = &progEntry{p: p, tick: n.progTick}
	return p
}

// EvaluateCRN evaluates one configuration under the CRN contract with the
// given base seed. Two calls with equal (program, base, config) return
// bit-identical evaluations regardless of device or interleaving.
func (n *Native) EvaluateCRN(config []int, base int64) (*Evaluation, error) {
	k, err := n.CRNKernel(config, base)
	if err != nil {
		return nil, err
	}
	return RunKernel(k)
}

// hashFloats writes float64s to a hash in a fixed binary form.
func hashFloats(w io.Writer, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		w.Write(buf[:])
	}
}

// hashInts writes ints to a hash in a fixed binary form.
func hashInts(w io.Writer, xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		w.Write(buf[:])
	}
}

// Fingerprint content-hashes everything the evaluation depends on: the
// time-distribution table, prices, goal, constraints, iteration count, and
// the DAG structure. Two Natives with equal fingerprints produce identical
// evaluations for every (config, base) pair — the key property behind the
// solver's cross-search evaluation cache.
func (n *Native) Fingerprint() string {
	n.fpOnce.Do(func() {
		h := sha256.New()
		io.WriteString(h, "native;")
		io.WriteString(h, n.Table.Fingerprint())
		hashFloats(h, n.PricePerHour...)
		hashInts(h, int64(n.Goal), int64(n.Iters), int64(len(n.Constraints)))
		if n.Markets != nil {
			io.WriteString(h, "markets;")
			for _, m := range n.Markets {
				spot := int64(0)
				if m.Spot {
					spot = 1
				}
				hashInts(h, spot)
				hashFloats(h, m.PriceMean, m.PriceSigma, m.RevocationsPerHour, m.OnDemandUSD)
			}
		}
		for _, c := range n.Constraints {
			io.WriteString(h, c.Kind)
			hashFloats(h, c.Percentile, c.Bound)
		}
		f := n.flat
		hashInts(h, int64(f.Len()))
		for _, id := range f.IDs {
			io.WriteString(h, id)
			io.WriteString(h, "|")
		}
		var buf [4]byte
		for _, o := range f.Order {
			binary.LittleEndian.PutUint32(buf[:], uint32(o))
			h.Write(buf[:])
		}
		for _, s := range f.ParentStart {
			binary.LittleEndian.PutUint32(buf[:], uint32(s))
			h.Write(buf[:])
		}
		for _, p := range f.Parents {
			binary.LittleEndian.PutUint32(buf[:], uint32(p))
			h.Write(buf[:])
		}
		n.fp = hex.EncodeToString(h.Sum(nil))
	})
	return n.fp
}

// checkConfig validates a configuration's length and type indices.
func (n *Native) checkConfig(config []int) error {
	if len(config) != n.W.Len() {
		return fmt.Errorf("probir: config length %d, want %d", len(config), n.W.Len())
	}
	for _, j := range config {
		if j < 0 || j >= n.NumTypes() {
			return fmt.Errorf("probir: type index %d out of range", j)
		}
	}
	return nil
}
