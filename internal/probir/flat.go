package probir

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"deco/internal/dag"
	"deco/internal/estimate"
)

// This file implements the common-random-number (CRN) evaluation core. A
// Native program is compiled once per search into a Program: the workflow's
// flat index form (dag.Flat), the dense per-(task, type) time-distribution
// table (estimate.FlatTable), and the duration matrix rows[task][type][world],
// sampled in full when the Program is built. Duration draws are keyed by
// (task, type) and the world's index in the row's stream — NOT by search
// state — so every state evaluated within one search observes the same
// world realizations. That is the CRN determinism contract:
//
//   - Evaluating a neighbor state that reassigns Δ tasks reads Δ other rows;
//     nothing is sampled after the Program is built.
//   - State-vs-state comparisons see the same randomness, cutting the
//     Monte-Carlo variance of score differences.
//   - Results depend only on (program, base seed, configuration); kernels
//     built from a Program draw nothing at Sample time, so devices may run
//     worlds in any order or in parallel and fold bit-identically.
//
// Worlds have one numbering. After sampling, the Program sorts the worlds
// decisive-first (order.go) and stores every duration and cost row in that
// order, so world p is position p of every row: for the fixed path, the
// adaptive path, snapshots and the Evaluate oracle alike.

// crnSeed derives the rng seed of one (task, type) duration row from the
// search-level base seed (splitmix64-style finalizer over a distinct stream
// constant from MixSeed, so CRN rows never collide with the residual
// kernels' world substreams).
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
// the dense distribution table, and the duration matrix, every row sampled
// and stored decisive-world-first when the Program is built. A Program is
// immutable after newProgram returns, so kernels read it without locks. The
// block pool serves per-chunk scratch so device threads evaluating worlds
// concurrently never allocate.
type Program struct {
	flat   *dag.Flat
	iters  int
	nTypes int

	// negative records that some duration is negative or NaN. Finish times
	// can then fall along an edge, so a makespan fold or rescan must visit
	// every task rather than only the sinks.
	negative bool

	rows [][]float64 // rows[task*nTypes+type][world]
	// costRows, present when the Native has market columns, parallels rows
	// for spot columns only: costRows[ri][w] is the realized cost of the
	// (task, spot type) pair in world w, drawn from the duration row's rng
	// stream (market.go). On-demand entries stay nil — their world cost is
	// duration/3600·price, computed in the kernel.
	costRows [][]float64

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
	finish              []float64 // n·m, task t row r at t*m+r
	ms, cost, chMax     []float64 // m
	amax, chArg, rescan []int32   // m
	amaxHit             []bool    // m
	marks               epochMarks
}

// block checks out a scratch sized for a chunk of m worlds; return it to
// p.blocks when the call is done.
func (p *Program) block(m int) *blockScratch {
	bs := p.blocks.Get().(*blockScratch)
	if cap(bs.ms) < m {
		bs.ms, bs.cost, bs.chMax = make([]float64, m), make([]float64, m), make([]float64, m)
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

// spread runs f over [0, n) cut into one contiguous range per processor,
// concurrently, and waits for every range. The Program build spreads only
// work whose result does not depend on the cut: every row, and every type's
// severity pass, is computed from its own inputs alone.
func spread(n int, f func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
}

// newProgram samples every (task, type) row of the duration matrix, then
// stores the worlds decisive-first. Row ri = task*nTypes+type draws from an
// rng seeded by crnSeed(base, ri), consumed in stream order; each range of
// rows reseeds one rng per row, which yields exactly a fresh source's
// stream without allocating one. The build checks ctx between rows and
// between worlds and returns its error once ctx is done.
func newProgram(ctx context.Context, flat *dag.Flat, ft *estimate.FlatTable, base int64, iters int, markets []MarketSpec) (*Program, error) {
	nr := flat.Len() * ft.NumTypes
	p := &Program{flat: flat, iters: iters, nTypes: ft.NumTypes, rows: make([][]float64, nr)}
	if markets != nil {
		p.costRows = make([][]float64, nr)
	}
	all := make([]float64, nr*iters)
	negative := make([]bool, nr)
	spread(nr, func(lo, hi int) {
		rng := rand.New(rand.NewSource(0))
		for ri := lo; ri < hi && ctx.Err() == nil; ri++ {
			i, j := ri/p.nTypes, ri%p.nTypes
			row := all[ri*iters : (ri+1)*iters : (ri+1)*iters]
			rng.Seed(crnSeed(base, ri))
			td := ft.Dist(i, j)
			if markets != nil && markets[j].Spot {
				p.costRows[ri] = make([]float64, iters)
				fillSpotRow(td, markets[j], rng, row, p.costRows[ri])
			} else {
				for it := range row {
					row[it] = td.Sample(rng)
				}
			}
			for _, d := range row {
				if !(d >= 0) {
					negative[ri] = true
					break
				}
			}
			p.rows[ri] = row
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("probir: building CRN program: %w", err)
	}
	for _, neg := range negative {
		p.negative = p.negative || neg
	}
	if err := p.sortWorlds(ctx); err != nil {
		return nil, fmt.Errorf("probir: building CRN program: %w", err)
	}
	p.blocks.New = func() any { return new(blockScratch) }
	return p, nil
}

// row returns the duration row of task i on type j.
func (p *Program) row(i, j int) []float64 { return p.rows[i*p.nTypes+j] }

// costRow returns the paired per-world cost row of task i on type j, or nil
// when j is not a spot offering (deterministic pricing — duration/3600·
// price).
func (p *Program) costRow(i, j int) []float64 {
	if p.costRows == nil {
		return nil
	}
	return p.costRows[i*p.nTypes+j]
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
// searches have since used this Native. A build that ctx cancels returns
// the context's error and caches nothing.
func (n *Native) program(ctx context.Context, base int64) (*Program, error) {
	n.progMu.Lock()
	defer n.progMu.Unlock()
	n.progTick++
	if e, ok := n.progs[base]; ok {
		e.tick = n.progTick
		return e.p, nil
	}
	p, err := newProgram(ctx, n.flat, n.ftab, base, n.Iters, n.Markets)
	if err != nil {
		return nil, err
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
	n.progs[base] = &progEntry{p: p, tick: n.progTick}
	return p, nil
}

// EvaluateCRN evaluates one configuration under the CRN contract with the
// given base seed. Two calls with equal (program, base, config) return
// bit-identical evaluations regardless of device or interleaving.
func (n *Native) EvaluateCRN(config []int, base int64) (*Evaluation, error) {
	k, err := n.CRNKernel(context.Background(), config, base)
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
