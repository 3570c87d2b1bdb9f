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
//   - MapBlocks schedules blocks *and* the threads within them (one per
//     Monte-Carlo iteration), so a batch narrower than the machine — one A*
//     expansion, a handful of multi-start seeds, an exploitation-phase child
//     set — still saturates every core. The TwoLevel device shares thread
//     chunks across its worker pool, stealing work from wide blocks when the
//     batch is narrow.
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

// Parallel runs blocks across a goroutine pool, standing in for the GPU's
// multiprocessors. It parallelizes the outer level only: each block's
// threads run sequentially on the worker that owns the block, so a batch
// narrower than the pool leaves workers idle (the state-only-parallel
// baseline the narrow-batch speedup series compares against).
type Parallel struct {
	// NumBlocks is the number of worker goroutines; 0 means GOMAXPROCS.
	NumBlocks int
}

// Name implements Device.
func (p Parallel) Name() string { return fmt.Sprintf("parallel-%d", p.blocks()) }

// Blocks implements Device.
func (p Parallel) Blocks() int { return p.blocks() }

func (p Parallel) blocks() int {
	if p.NumBlocks > 0 {
		return p.NumBlocks
	}
	return runtime.GOMAXPROCS(0)
}

// Map implements Device: work items are distributed to workers via a shared
// index channel (block scheduling); there is no cross-block communication,
// matching the GPU implementation principle of §5.2.
func (p Parallel) Map(n int, fn func(i int)) {
	workers := p.blocks()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapBlocks implements Device with outer-level parallelism only.
func (p Parallel) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	p.Map(nBlocks, func(b int) {
		for t := 0; t < threads; t++ {
			kernel(b, t)
		}
	})
}

// TwoLevel is the full block/thread device of §5.2-5.3: states are blocks,
// Monte-Carlo iterations are threads within a block, and the worker pool
// shares thread chunks across blocks. A wide batch degenerates to block
// scheduling (each worker drains whole blocks); a narrow batch splits each
// block's threads across many workers, so even a single-state evaluation
// uses the whole machine.
type TwoLevel struct {
	// NumWorkers is the goroutine pool size; 0 means GOMAXPROCS.
	NumWorkers int
	// MaxThreads caps how many thread chunks of one block may be in flight
	// concurrently — the iteration-parallelism knob. 0 means unbounded
	// (split blocks as finely as keeps all workers busy); 1 pins each block
	// to a single worker, reproducing the state-only-parallel baseline.
	MaxThreads int
}

// Name implements Device.
func (d TwoLevel) Name() string {
	if d.MaxThreads > 0 {
		return fmt.Sprintf("twolevel-%dx%d", d.workers(), d.MaxThreads)
	}
	return fmt.Sprintf("twolevel-%d", d.workers())
}

// Blocks implements Device.
func (d TwoLevel) Blocks() int { return d.workers() }

func (d TwoLevel) workers() int {
	if d.NumWorkers > 0 {
		return d.NumWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Map implements Device (outer level only), for callers that have no
// per-thread decomposition.
func (d TwoLevel) Map(n int, fn func(i int)) {
	Parallel{NumBlocks: d.workers()}.Map(n, fn)
}

// MapBlocks implements Device. Every block's threads are cut into
// chunks that never span blocks; workers pull chunks from a shared counter,
// so when the batch is narrower than the pool the surplus workers steal
// chunks from the blocks that remain — the cross-block work-sharing a real
// GPU gets from oversubscribing its multiprocessors.
func (d TwoLevel) MapBlocks(nBlocks, threads int, kernel func(block, thread int)) {
	if nBlocks <= 0 || threads <= 0 {
		return
	}
	workers := d.workers()
	if total := nBlocks * threads; workers > total {
		workers = total
	}
	if workers <= 1 {
		Sequential{}.MapBlocks(nBlocks, threads, kernel)
		return
	}
	// Aim for ~4 chunks per worker so stealing stays cheap but no worker
	// idles behind one long chunk; never split finer than MaxThreads allows.
	chunksPerBlock := (4*workers + nBlocks - 1) / nBlocks
	if chunksPerBlock > threads {
		chunksPerBlock = threads
	}
	if d.MaxThreads > 0 && chunksPerBlock > d.MaxThreads {
		chunksPerBlock = d.MaxThreads
	}
	if chunksPerBlock < 1 {
		chunksPerBlock = 1
	}
	chunk := (threads + chunksPerBlock - 1) / chunksPerBlock
	chunksPerBlock = (threads + chunk - 1) / chunk // tight after rounding
	units := nBlocks * chunksPerBlock

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				b := u / chunksPerBlock
				lo := (u % chunksPerBlock) * chunk
				hi := lo + chunk
				if hi > threads {
					hi = threads
				}
				for t := lo; t < hi; t++ {
					kernel(b, t)
				}
			}
		}()
	}
	wg.Wait()
}

// ReduceBlocks runs kernel(b, t, out) for every (block, thread) pair on the
// device — out being the thread's private width-sized slot — and folds each
// block's slots figure-wise in thread order: the deterministic software
// analogue of the paper's shared-memory block reduction (§5.2: "store the
// temporary results of each thread into the shared memory for fast
// synchronization"). Because the fold order is canonical, the returned sums
// are bit-identical on every device regardless of how the work was
// scheduled.
//
// The returned slice is block-major (sums[b*width+w]); errs[b] is block b's
// first error in thread order, or nil. A block with an error still has its
// remaining threads run (threads are independent); its sums are meaningless.
func ReduceBlocks(d Device, nBlocks, threads, width int, kernel func(block, thread int, out []float64) error) (sums []float64, errs []error) {
	sums = make([]float64, nBlocks*width)
	errs = make([]error, nBlocks)
	if nBlocks <= 0 || threads <= 0 || width <= 0 {
		return sums, errs
	}
	slots := make([]float64, nBlocks*threads*width)
	slotErrs := make([]error, nBlocks*threads)
	d.MapBlocks(nBlocks, threads, func(b, t int) {
		off := (b*threads + t) * width
		slotErrs[b*threads+t] = kernel(b, t, slots[off:off+width:off+width])
	})
	for b := 0; b < nBlocks; b++ {
		for t := 0; t < threads; t++ {
			if err := slotErrs[b*threads+t]; err != nil {
				errs[b] = err
				break
			}
		}
		if errs[b] != nil {
			continue
		}
		for t := 0; t < threads; t++ {
			off := (b*threads + t) * width
			for w := 0; w < width; w++ {
				sums[b*width+w] += slots[off+w]
			}
		}
	}
	return sums, errs
}

// ReduceBlocksRange is ReduceBlocks restricted to the thread range [lo, hi):
// it runs kernel(b, t, out) for every block b and thread t in the range and
// folds each block's slots into the caller's running sums — sums[b*width+w],
// len nBlocks*width — one thread at a time in ascending thread order.
// Because the fold appends world by world to whatever the sums already hold,
// chaining ranges [0,a), [a,b), ... yields sums bit-identical to a single
// [0, n) ReduceBlocks: float accumulation happens in the same order either
// way. This is the execution primitive of adaptive (chunked) evaluation,
// where a batch of states advances through world chunks and states leave the
// batch as their verdicts are decided.
//
// errs[b] is block b's first error in thread order within this range, or nil;
// a block with an error still has its remaining threads run, and its sums are
// left untouched (not folded). The returned slots slice holds the range's raw
// per-thread figures, laid out slots[(b*(hi-lo)+(t-lo))*width+w], for callers
// that need per-world figures beyond the sums (racing's paired differences);
// it is freshly allocated each call and owned by the caller.
func ReduceBlocksRange(d Device, nBlocks, lo, hi, width int, sums []float64, kernel func(block, thread int, out []float64) error) (slots []float64, errs []error) {
	errs = make([]error, nBlocks)
	if nBlocks <= 0 || hi <= lo || width <= 0 {
		return nil, errs
	}
	span := hi - lo
	slots = make([]float64, nBlocks*span*width)
	slotErrs := make([]error, nBlocks*span)
	d.MapBlocks(nBlocks, span, func(b, t int) {
		off := (b*span + t) * width
		slotErrs[b*span+t] = kernel(b, lo+t, slots[off:off+width:off+width])
	})
	for b := 0; b < nBlocks; b++ {
		for t := 0; t < span; t++ {
			if err := slotErrs[b*span+t]; err != nil {
				errs[b] = err
				break
			}
		}
		if errs[b] != nil {
			continue
		}
		for t := 0; t < span; t++ {
			off := (b*span + t) * width
			for w := 0; w < width; w++ {
				sums[b*width+w] += slots[off+w]
			}
		}
	}
	return slots, errs
}

// Reduce runs fn(i) for every i in [0, n) on the device and sums the results
// in index order — a single-block ReduceBlocks.
func Reduce(d Device, n int, fn func(i int) float64) float64 {
	sums, _ := ReduceBlocks(d, 1, n, 1, func(_, t int, out []float64) error {
		out[0] = fn(t)
		return nil
	})
	return sums[0]
}
