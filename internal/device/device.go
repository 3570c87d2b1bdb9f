// Package device is the execution substrate for Deco's parallel solver. The
// paper runs the solver on an NVIDIA K40: one GPU thread block per searched
// state, one thread per Monte-Carlo iteration, shared-memory reductions
// inside a block, and no communication across blocks (§5.2-5.3). Go has no
// mature CUDA ecosystem, so this package reproduces the *execution model* in
// software: a Device schedules independent "blocks" of work across a pool of
// goroutines, with the Sequential device standing in for the single-thread
// CPU baseline the paper's speedup numbers compare against.
//
// The execution model has two levels:
//
//   - Map schedules blocks only (one per searched state) — the outer level.
//   - MapBlocks schedules blocks *and* the threads within them, so a batch
//     narrower than the machine — one A* expansion, a handful of
//     multi-start seeds, an exploitation-phase child set — still saturates
//     every core. The TwoLevel device shares every (block, thread) unit
//     across its worker pool, so when the batch is narrow the surplus
//     workers take threads from the blocks that remain.
//
// ReduceBlocksRange, the solver's one evaluation primitive, maps a block's
// Monte-Carlo worlds onto MapBlocks threads in *world chunks*: each
// (block, chunk) unit hands a run of consecutive world positions to one
// kernel call, the software analogue of a warp stepping consecutive worlds
// through the same task in lockstep. It is the one place that decides how a
// block's worlds split across workers. The chunk size depends on the
// device's width and the batch, never on results: slots are folded per block
// in ascending world order whatever the chunking.
//
// All implementations run the same work and produce identical results given
// per-(block,thread) deterministic seeds; only wall-clock time differs,
// which is what the §6.3 speedup experiments measure.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Device schedules independent "blocks" of work, and the Monte-Carlo
// "threads" within them. Implementations must call fn exactly once for every
// i in [0, n), and kernel exactly once for every pair in [0, nBlocks) x
// [0, threads); the schedule (which worker runs which item, in what order)
// is unspecified, so kernels must write only to per-(block,thread) state.
type Device interface {
	// Name identifies the device in benchmark output.
	Name() string
	// Blocks is the number of concurrently executing blocks (the GPU's
	// multiprocessor count N in §5.3; 1 for the sequential device).
	Blocks() int
	// Map runs fn(i) for every i in [0, n).
	Map(n int, fn func(i int))
	// MapBlocks runs kernel(b, t) for every block b in [0, nBlocks) and
	// thread t in [0, threads).
	MapBlocks(nBlocks, threads int, kernel func(block, thread int))
}

// Sequential runs blocks one at a time — the single-thread CPU baseline.
type Sequential struct{}

// Name implements Device.
func (Sequential) Name() string { return "sequential" }

// Blocks implements Device.
func (Sequential) Blocks() int { return 1 }

// Map implements Device.
func (Sequential) Map(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// MapBlocks implements Device: block-major, thread order.
func (Sequential) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	for b := 0; b < nBlocks; b++ {
		for t := 0; t < threads; t++ {
			kernel(b, t)
		}
	}
}

// TwoLevel is the full block/thread device of §5.2-5.3: states are blocks,
// Monte-Carlo iterations are threads within a block, and the worker pool
// shares (block, thread) units across blocks. A wide batch degenerates to
// block scheduling (each worker drains whole blocks); a narrow batch spreads
// each block's threads across many workers, so even a single-state
// evaluation uses the whole machine.
type TwoLevel struct {
	// NumWorkers is the goroutine pool size; 0 means GOMAXPROCS.
	NumWorkers int
}

// Name implements Device.
func (d TwoLevel) Name() string { return fmt.Sprintf("twolevel-%d", d.workers()) }

// Blocks implements Device.
func (d TwoLevel) Blocks() int { return d.workers() }

func (d TwoLevel) workers() int {
	if d.NumWorkers > 0 {
		return d.NumWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Map implements Device (outer level only), for callers that have no
// per-thread decomposition: workers claim items from a shared atomic
// counter, with no cross-block communication, matching the GPU
// implementation principle of §5.2.
func (d TwoLevel) Map(n int, fn func(i int)) {
	workers := d.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		Sequential{}.Map(n, fn)
		return
	}
	run(workers, n, fn)
}

// run starts workers goroutines that claim the items [0, n) from a shared
// counter and waits for them to finish.
func run(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapBlocks implements Device. Workers pull (block, thread) units from a
// shared counter, so when the batch is narrower than the pool the surplus
// workers take threads from the blocks that remain — the cross-block
// work-sharing a real GPU gets from oversubscribing its multiprocessors. It
// never starts more workers than there are units, and a call with one unit
// (or one worker) runs inline.
func (d TwoLevel) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	if nBlocks <= 0 || threads <= 0 {
		return
	}
	units := nBlocks * threads
	workers := d.workers()
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		Sequential{}.MapBlocks(nBlocks, threads, kernel)
		return
	}
	run(workers, units, func(u int) { kernel(u/threads, u%threads) })
}

// BlockKernel computes the worlds at positions [lo, hi) of block b into out:
// hi-lo consecutive width-sized rows, zeroed on entry, row r holding
// position lo+r. Calls for distinct (block, range) pairs may run
// concurrently.
type BlockKernel func(block, lo, hi int, out []float64) error

// minChunk is the fewest worlds ReduceBlocksRange hands one kernel call
// while a block is split across workers: below it the per-call overhead
// (the kernel's scratch checkout, its task loop) outweighs the balance a
// finer split buys.
const minChunk = 32

// Buffers is the reusable scratch of ReduceBlocksRange: the per-world slots
// and the per-block errors. The zero value is ready to use; a caller that
// runs many rounds keeps one and reuses it, so a round allocates nothing.
// A Buffers serves one ReduceBlocksRange call at a time, and the errors a
// call returns stay valid until the next call on the same Buffers.
type Buffers struct {
	slots []float64
	errs  []error
	errAt []int // per block: position of the chunk that raised errs[b]
	mu    sync.Mutex
}

// ReduceBlocks runs kernel over every world position [0, threads) of every
// block on the device, in world chunks, and folds each block's slots
// figure-wise in ascending position order: the deterministic software
// analogue of the paper's shared-memory block reduction (§5.2: "store the
// temporary results of each thread into the shared memory for fast
// synchronization"). Because the fold order is canonical, the returned sums
// are bit-identical on every device regardless of how the work was
// scheduled or chunked.
//
// The returned slice is block-major (sums[b*width+w]); errs[b] is the error
// of block b's first failing chunk in position order, or nil. A block with
// an error still has its remaining chunks run (they are independent); its
// sums are meaningless.
func ReduceBlocks(d Device, nBlocks, threads, width int, kernel BlockKernel) (sums []float64, errs []error) {
	sums = make([]float64, nBlocks*width)
	return sums, ReduceBlocksRange(d, nBlocks, 0, threads, width, sums, nil, kernel)
}

// ReduceBlocksRange is ReduceBlocks restricted to the position range
// [lo, hi): it runs kernel over the range of every block, one (block,
// chunk) unit per MapBlocks thread, and folds each block's slots into the
// caller's running sums — sums[b*width+w], len nBlocks*width — one position
// at a time in ascending order. Because the fold appends position by
// position to whatever the sums already hold, chaining ranges [0,a), [a,b),
// ... yields sums bit-identical to a single [0, n) ReduceBlocks: float
// accumulation happens in the same order either way. This is the execution
// primitive of adaptive (chunked) evaluation, where a batch of states
// advances through world chunks and states leave the batch as their
// verdicts are decided.
//
// errs[b] is the error of block b's first failing chunk within this range,
// or nil; a block with an error still has its remaining chunks run, and its
// sums are left untouched (not folded). The range's per-position slots and
// errs live in buf, which may be nil (fresh buffers) and is reused by the
// next call on it.
func ReduceBlocksRange(d Device, nBlocks, lo, hi, width int, sums []float64, buf *Buffers, kernel BlockKernel) (errs []error) {
	if buf == nil {
		buf = new(Buffers)
	}
	if nBlocks < 0 {
		nBlocks = 0
	}
	errs = grow(buf.errs, nBlocks)
	buf.errs = errs
	clear(errs)
	if nBlocks == 0 || hi <= lo || width <= 0 {
		return errs
	}
	span := hi - lo
	slots := grow(buf.slots, nBlocks*span*width)
	buf.slots = slots
	clear(slots)
	errAt := grow(buf.errAt, nBlocks)
	buf.errAt = errAt

	// Split blocks only as far as a batch narrower than the pool needs to
	// give every worker a unit, and never below minChunk worlds: a kernel
	// call over a whole block runs its task loop once for all its worlds,
	// so a batch at least as wide as the pool keeps whole blocks (finer
	// splits measured slower end to end on the plan-cold workload).
	chunks := 1
	if workers := d.Blocks(); workers > 1 {
		chunks = (workers + nBlocks - 1) / nBlocks
		if most := (span + minChunk - 1) / minChunk; chunks > most {
			chunks = most
		}
		if chunks < 1 {
			chunks = 1
		}
	}
	size := (span + chunks - 1) / chunks
	chunks = (span + size - 1) / size // tight after rounding
	d.MapBlocks(nBlocks, chunks, func(b, c int) {
		clo := c * size
		chi := clo + size
		if chi > span {
			chi = span
		}
		off := b * span
		if err := kernel(b, lo+clo, lo+chi, slots[(off+clo)*width:(off+chi)*width:(off+chi)*width]); err != nil {
			buf.mu.Lock()
			if errs[b] == nil || clo < errAt[b] {
				errs[b], errAt[b] = err, clo
			}
			buf.mu.Unlock()
		}
	})
	for b := 0; b < nBlocks; b++ {
		if errs[b] != nil {
			continue
		}
		row := sums[b*width : (b+1)*width]
		for t := 0; t < span; t++ {
			off := (b*span + t) * width
			for w := range row {
				row[w] += slots[off+w]
			}
		}
	}
	return errs
}

// grow returns s resliced to n, reallocated when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
