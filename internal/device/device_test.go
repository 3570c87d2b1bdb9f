package device

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// The sequential device runs MapBlocks block-major, threads in order.
func TestSequentialMapBlocksVisitsAllInOrder(t *testing.T) {
	const nb, th = 3, 4
	var got []int
	Sequential{}.MapBlocks(nb, th, func(b, tt int) { got = append(got, b*th+tt) })
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
	if len(got) != nb*th {
		t.Fatalf("visited %d", len(got))
	}
}

func TestTwoLevelMapVisitsAllExactlyOnce(t *testing.T) {
	const n = 1000
	for _, d := range []TwoLevel{{NumWorkers: 8}, {NumWorkers: 1}} {
		var counts [n]int32
		d.Map(n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%s: item %d visited %d times", d.Name(), i, c)
			}
		}
	}
}

func TestTwoLevelMapDegeneratesGracefully(t *testing.T) {
	// n < workers and n == 0.
	var visits int32
	TwoLevel{NumWorkers: 16}.Map(3, func(i int) { atomic.AddInt32(&visits, 1) })
	if visits != 3 {
		t.Fatalf("visits %d", visits)
	}
	TwoLevel{NumWorkers: 16}.Map(0, func(i int) { t.Fatal("should not run") })
	TwoLevel{NumWorkers: 1}.Map(2, func(i int) { atomic.AddInt32(&visits, 1) })
	if visits != 5 {
		t.Fatalf("visits %d", visits)
	}
}

func TestBlocksAndNames(t *testing.T) {
	if (Sequential{}).Blocks() != 1 || (Sequential{}).Name() != "sequential" {
		t.Error("sequential identity wrong")
	}
	d := TwoLevel{NumWorkers: 6}
	if d.Blocks() != 6 {
		t.Errorf("blocks %d", d.Blocks())
	}
	if d.Name() != "twolevel-6" {
		t.Errorf("name %s", d.Name())
	}
}

// A single-block ReduceBlocks sums in index order on every device.
func TestReduceMatchesSequentialSum(t *testing.T) {
	f := func(vals []float64) bool {
		sum := func(d Device) float64 {
			sums, _ := ReduceBlocks(d, 1, len(vals), 1, perWorld(func(_, i int, out []float64) error {
				out[0] = vals[i]
				return nil
			}))
			return sums[0]
		}
		var seq float64
		for _, v := range vals {
			seq += v
		}
		return seq == sum(Sequential{}) && seq == sum(TwoLevel{NumWorkers: 1}) && seq == sum(TwoLevel{NumWorkers: 4})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The parallel pool must produce identical results to a single worker when
// blocks are independent — the determinism contract the solver relies on.
func TestTwoLevelMapDeterminism(t *testing.T) {
	const n = 200
	run := func(d TwoLevel) [n]float64 {
		var out [n]float64
		d.Map(n, func(i int) { out[i] = float64(i*i) * 0.5 })
		return out
	}
	if run(TwoLevel{NumWorkers: 1}) != run(TwoLevel{NumWorkers: 7}) {
		t.Error("devices disagree")
	}
}

// MapBlocks must call the kernel exactly once per (block, thread) pair, on
// every implementation and for shapes narrower and wider than the pool.
func TestMapBlocksVisitsEveryPairExactlyOnce(t *testing.T) {
	devices := []Device{
		Sequential{},
		TwoLevel{NumWorkers: 1},
		TwoLevel{NumWorkers: 5},
		TwoLevel{NumWorkers: 64},
	}
	shapes := [][2]int{{1, 100}, {2, 37}, {13, 1}, {8, 8}, {40, 3}, {3, 0}, {0, 3}}
	for _, d := range devices {
		for _, sh := range shapes {
			nb, th := sh[0], sh[1]
			counts := make([]int32, nb*th)
			d.MapBlocks(nb, th, func(b, tt int) {
				atomic.AddInt32(&counts[b*th+tt], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("%s %dx%d: pair %d visited %d times", d.Name(), nb, th, i, c)
				}
			}
		}
	}
}

func TestTwoLevelNames(t *testing.T) {
	if got := (TwoLevel{NumWorkers: 4}).Name(); got != "twolevel-4" {
		t.Errorf("name %s", got)
	}
	if (TwoLevel{}).Blocks() < 1 {
		t.Error("default workers < 1")
	}
}

// ReduceBlocks must fold in canonical thread order: identical sums — bit for
// bit — on every device, even though float addition does not commute.
func TestReduceBlocksBitIdenticalAcrossDevices(t *testing.T) {
	const nb, th, width = 7, 93, 3
	kernel := func(b, tt int, out []float64) error {
		// Values at wildly different magnitudes so any reordering of the
		// fold would change the rounded sums.
		x := float64(b+1) * float64(tt+1)
		out[0] = x * 1e-17
		out[1] = x * 1e17
		out[2] = 1 / x
		return nil
	}
	ref, _ := ReduceBlocks(Sequential{}, nb, th, width, perWorld(kernel))
	for _, d := range []Device{TwoLevel{NumWorkers: 1}, TwoLevel{NumWorkers: 5}, TwoLevel{NumWorkers: 3}, TwoLevel{}} {
		for rep := 0; rep < 10; rep++ {
			got, errs := ReduceBlocks(d, nb, th, width, perWorld(kernel))
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: sums[%d] = %v, want %v", d.Name(), i, got[i], ref[i])
				}
			}
		}
	}
}

// An error in one block must be attributed to that block alone — first in
// thread order — while other blocks reduce normally.
func TestReduceBlocksErrorAttribution(t *testing.T) {
	const nb, th = 4, 20
	// Block 1 fails at threads 3 and 7; block 3 at thread 0.
	kernel := func(b, tt int, out []float64) error {
		if b == 1 && (tt == 7 || tt == 3) {
			return errBoom{tt}
		}
		if b == 3 && tt == 0 {
			return errBoom{tt}
		}
		out[0] = 1
		return nil
	}
	sums, errs := ReduceBlocks(TwoLevel{NumWorkers: 4}, nb, th, 1, perWorld(kernel))
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy blocks got errors: %v %v", errs[0], errs[2])
	}
	if e, ok := errs[1].(errBoom); !ok || e.t != 3 {
		t.Errorf("block 1: want first-in-thread-order error at t=3, got %v", errs[1])
	}
	if e, ok := errs[3].(errBoom); !ok || e.t != 0 {
		t.Errorf("block 3: want error at t=0, got %v", errs[3])
	}
	for _, b := range []int{0, 2} {
		if sums[b] != th {
			t.Errorf("block %d sum %v, want %d", b, sums[b], th)
		}
	}
}

type errBoom struct{ t int }

// perWorld lifts a one-world kernel to the ranged BlockKernel contract: the
// chunk's worlds in order, stopping at the first error.
func perWorld(kernel func(b, t int, out []float64) error) BlockKernel {
	return func(b, lo, hi int, out []float64) error {
		width := len(out) / (hi - lo)
		for t := lo; t < hi; t++ {
			if err := kernel(b, t, out[(t-lo)*width:(t-lo+1)*width]); err != nil {
				return err
			}
		}
		return nil
	}
}

func (e errBoom) Error() string { return "boom" }

// TestReduceBlocksRangeChainsBitIdentical verifies the chunked-fold contract:
// accumulating ranges [0,a), [a,b), ... into running sums is bit-identical to
// one full ReduceBlocks, on every device.
func TestReduceBlocksRangeChainsBitIdentical(t *testing.T) {
	const nb, th, width = 5, 97, 2
	kernel := func(b, tt int, out []float64) error {
		x := float64(b+1) * float64(tt+1)
		out[0] = x * 1e-17
		out[1] = 1 / x
		return nil
	}
	ref, _ := ReduceBlocks(Sequential{}, nb, th, width, perWorld(kernel))
	// One Buffers serves every round: reuse must not leak a round's slots
	// or errors into the next.
	buf := new(Buffers)
	for _, d := range []Device{Sequential{}, TwoLevel{NumWorkers: 2}, TwoLevel{NumWorkers: 5}} {
		for _, bounds := range [][]int{{th}, {16, 48, th}, {1, 2, 3, 50, th}} {
			sums := make([]float64, nb*width)
			lo := 0
			for _, hi := range bounds {
				for _, err := range ReduceBlocksRange(d, nb, lo, hi, width, sums, buf, perWorld(kernel)) {
					if err != nil {
						t.Fatal(err)
					}
				}
				lo = hi
			}
			for i := range ref {
				if sums[i] != ref[i] {
					t.Fatalf("%s bounds %v: sums[%d] = %v, want %v", d.Name(), bounds, i, sums[i], ref[i])
				}
			}
		}
	}
}

// TestReduceBlocksRangeErrorSkipsFold: an errored block's sums stay
// untouched for the range, and the first-in-thread-order error is reported.
func TestReduceBlocksRangeErrorSkipsFold(t *testing.T) {
	kernel := func(b, tt int, out []float64) error {
		if b == 1 && tt >= 10 {
			return errBoom{tt}
		}
		out[0] = 1
		return nil
	}
	sums := make([]float64, 3)
	errs := ReduceBlocksRange(TwoLevel{NumWorkers: 3}, 3, 0, 8, 1, sums, nil, perWorld(kernel))
	for b, err := range errs {
		if err != nil {
			t.Fatalf("unexpected error in clean range, block %d: %v", b, err)
		}
	}
	errs = ReduceBlocksRange(TwoLevel{NumWorkers: 3}, 3, 8, 20, 1, sums, nil, perWorld(kernel))
	if e, ok := errs[1].(errBoom); !ok || e.t != 10 {
		t.Fatalf("block 1: want first error at t=10, got %v", errs[1])
	}
	if sums[0] != 20 || sums[2] != 20 {
		t.Fatalf("healthy block sums %v, want 20", sums)
	}
	if sums[1] != 8 {
		t.Fatalf("errored block folded anyway: sum %v, want 8 (first range only)", sums[1])
	}
}
