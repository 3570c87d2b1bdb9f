package opt

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/wfgen"
)

// slowSpace is a search space whose evaluations take a fixed wall time, so
// cancellation latency can be bounded against total solve time.
type slowSpace struct {
	n     int // state length
	types int // values per position
	delay time.Duration
	evals atomic.Int64
}

func (s *slowSpace) Starts() []State { return []State{make(State, s.n)} }

func (s *slowSpace) Neighbors(st State) []Transform {
	var out []Transform
	for i := 0; i < s.n; i++ {
		if st[i]+1 < s.types {
			out = append(out, Transform{Tasks: Indices(s.n)[i : i+1], Step: 1})
		}
	}
	return out
}

func (s *slowSpace) Describe(context.Context, int64) Descriptor {
	return Descriptor{Kernel: func(st State) (probir.WorldKernel, error) {
		return evalKernel(func() (*probir.Evaluation, error) { return s.evaluate(st) }), nil
	}}
}

func (s *slowSpace) evaluate(st State) (*probir.Evaluation, error) {
	s.evals.Add(1)
	time.Sleep(s.delay)
	v := 0.0
	for _, x := range st {
		v += float64(x)
	}
	// Children strictly improve on their parent (minimization toward the
	// all-max state), so neither search prunes or stalls before cancellation.
	return &probir.Evaluation{Value: 1 + float64(s.n*(s.types-1)) - v, Feasible: true}, nil
}

func TestSearchCancellationIsPrompt(t *testing.T) {
	const perEval = 2 * time.Millisecond
	mk := func() (*slowSpace, Options) {
		sp := &slowSpace{n: 6, types: 6, delay: perEval}
		o := Options{Device: device.Sequential{}, MaxStates: 600, BeamWidth: 4, Patience: 1000, Seed: 1}
		return sp, o
	}

	// The full (uncancelled) solve costs at least MaxStates/3 evaluations
	// sequentially — well over a second of sleep time. Cancel after a small
	// head start and require the search to return within a small fraction of
	// that lower bound.
	fullLowerBound := 200 * perEval // 400ms of mandatory sleep if uncancelled

	for _, astar := range []bool{false, true} {
		sp, o := mk()
		o.AStar = astar
		ctx, cancel := context.WithCancel(context.Background())
		o.Ctx = ctx
		go func() {
			time.Sleep(10 * perEval)
			cancel()
		}()
		start := time.Now()
		_, err := Search(sp, o)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("astar=%v: cancelled search returned no error", astar)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("astar=%v: error does not wrap context.Canceled: %v", astar, err)
		}
		if elapsed >= fullLowerBound/2 {
			t.Errorf("astar=%v: cancellation took %v, want well under the %v full-solve lower bound", astar, elapsed, fullLowerBound)
		}
		if n := sp.evals.Load(); n >= 200 {
			t.Errorf("astar=%v: %d states evaluated after cancellation, want far fewer than the 600 budget", astar, n)
		}
	}
}

func TestSearchPreCancelledContext(t *testing.T) {
	sp := &slowSpace{n: 3, types: 3, delay: 0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(sp, Options{Device: device.Sequential{}, MaxStates: 50, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}
}

func TestSearchNilContextStillWorks(t *testing.T) {
	sp := &slowSpace{n: 3, types: 3, delay: 0}
	res, err := Search(sp, Options{Device: device.Sequential{}, MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEval == nil || res.Evaluated == 0 {
		t.Fatal("search with nil context returned no result")
	}
}

// TestCompileCancelsProgramBuild cancels a search while Compile is still
// building its CRN Program (473 tasks × 4 types × 4000 worlds, hundreds of
// milliseconds) and requires Compile to give up within 100 ms with an error
// that wraps context.Canceled.
func TestCompileCancelsProgramBuild(t *testing.T) {
	w, err := wfgen.Montage(8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ne, _ := buildEval(t, w, 40000, 0.95, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Compile(NewScheduleSpace(w, ne), Options{Device: device.Sequential{}, Ctx: ctx})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	err = <-done
	if took := time.Since(cancelled); took > 100*time.Millisecond {
		t.Errorf("Compile returned %v after the cancel, want within 100ms", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compile under a cancelled build: err %v, want context.Canceled (did the build finish within 20ms?)", err)
	}
}
