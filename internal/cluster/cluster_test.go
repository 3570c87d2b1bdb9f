package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := NewRing("http://a:1", peers)
	r2 := NewRing("http://b:1", []string{"http://c:1", "http://b:1", "http://a:1", "http://a:1"})
	if r1.Size() != 3 || r2.Size() != 3 {
		t.Fatalf("sizes = %d, %d, want 3 (dedup + self-insert)", r1.Size(), r2.Size())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if o1, o2 := r1.Owner(key), r2.Owner(key); o1 != o2 {
			t.Fatalf("ring views disagree on %q: %q vs %q", key, o1, o2)
		}
	}
	if r := NewRing("http://a:1", nil); r.Owner("anything") != r.Self() {
		t.Error("single-node ring must own every key")
	}
}

func TestRingBalance(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(peers[0], peers)
	counts := make(map[string]int)
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("job-%d", i))]++
	}
	for _, p := range peers {
		if c := counts[p]; c < n/6 || c > n/2 {
			t.Errorf("peer %s owns %d of %d keys; want roughly %d", p, c, n, n/3)
		}
	}
}

// Rendezvous hashing's selling point: removing a peer only moves the keys it
// owned; every other key keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing("http://a:1", []string{"http://a:1", "http://b:1", "http://c:1"})
	reduced := NewRing("http://a:1", []string{"http://a:1", "http://b:1"})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "http://c:1" && before != after {
			t.Fatalf("key %q moved from %q to %q though its owner never left", key, before, after)
		}
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var g Group
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	shared := make([]bool, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.Do("k", func() (any, error) {
				calls.Add(1)
				<-release
				return "plan", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Wait for the leader to be in flight, then let everyone pile on.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters join the flight
	close(release)
	wg.Wait()

	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	nShared := 0
	for i := 0; i < n; i++ {
		if vals[i] != "plan" {
			t.Errorf("caller %d got %v", i, vals[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Errorf("%d callers reported shared, want %d", nShared, n-1)
	}

	// The key is forgotten after completion: a later call runs fn again.
	if _, _, sh := g.Do("k", func() (any, error) { calls.Add(1); return "again", nil }); sh {
		t.Error("post-completion call reported shared")
	}
	if calls.Load() != 2 {
		t.Errorf("fn ran %d times total, want 2", calls.Load())
	}
}

func TestSingleflightDistinctKeysRunIndependently(t *testing.T) {
	var g Group
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Do(fmt.Sprintf("k%d", i), func() (any, error) {
				calls.Add(1)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Errorf("fn ran %d times, want 4", calls.Load())
	}
}

func TestClientSolveRoundTrip(t *testing.T) {
	var gotForwarded, gotRID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerSolvePath || r.Method != http.MethodPost {
			t.Errorf("peer saw %s %s", r.Method, r.URL.Path)
		}
		gotForwarded = r.Header.Get(HeaderForwarded)
		gotRID = r.Header.Get(HeaderRequestID)
		w.Header().Set(HeaderCached, "1")
		fmt.Fprint(w, `{"feasible":true}`)
	}))
	defer ts.Close()

	c := NewClient(time.Second)
	rep, err := c.Solve(context.Background(), ts.URL+"/", []byte(`{}`), "rid-123")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached || string(rep.Doc) != `{"feasible":true}` {
		t.Errorf("reply = %+v", rep)
	}
	if gotForwarded != "1" || gotRID != "rid-123" {
		t.Errorf("headers: forwarded=%q rid=%q", gotForwarded, gotRID)
	}
}

func TestClientSolveErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	c := NewClient(time.Second)
	if _, err := c.Solve(context.Background(), ts.URL, []byte(`{}`), ""); err == nil {
		t.Error("non-200 status did not error")
	}
	ts.Close()
	if _, err := c.Solve(context.Background(), ts.URL, []byte(`{}`), ""); err == nil {
		t.Error("closed peer did not error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Solve(ctx, "http://127.0.0.1:1", []byte(`{}`), ""); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v, want context.Canceled", err)
	}
}
