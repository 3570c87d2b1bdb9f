package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// testNode is one member of an in-process cluster bound to a real loopback
// listener (peer forwarding needs routable URLs, so httptest alone won't do).
type testNode struct {
	srv *Server
	url string
}

// newTestCluster starts n decod nodes that know each other via a static peer
// list. mutate, when non-nil, adjusts each node's config before start.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		cfg := quickCfg()
		cfg.Self = urls[i]
		cfg.Peers = append([]string(nil), urls...)
		cfg.QueueDepth = 64
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		go srv.Serve(listeners[i])
		nodes[i] = &testNode{srv: srv, url: urls[i]}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, nd := range nodes {
			_ = nd.srv.Shutdown(ctx)
		}
	})
	return nodes
}

func submitTo(t *testing.T, url string, req SubmitRequest, headers map[string]string) (JobView, int) {
	t.Helper()
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

func waitDoneOn(t *testing.T, url, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		if code := getJSON(t, url+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("get %s: status %d", id, code)
		}
		if v.State == JobDone {
			return v
		}
		if v.State.terminal() {
			t.Fatalf("job %s on %s reached %q: %s", id, url, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s on %s stuck in %q", id, url, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metricsOf(t *testing.T, url string) Snapshot {
	t.Helper()
	var s Snapshot
	if code := getJSON(t, url+"/metrics", &s); code != http.StatusOK {
		t.Fatalf("metrics on %s: status %d", url, code)
	}
	return s
}

// clusterRequest is a small, fast problem whose key is stable across nodes.
func clusterRequest(seed int64) SubmitRequest {
	return SubmitRequest{
		Workflow: "pipeline",
		Seed:     seed,
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
	}
}

// ownerIndex finds which node owns the request's job key.
func ownerIndex(t *testing.T, nodes []*testNode, req SubmitRequest) int {
	t.Helper()
	mgr := nodes[0].srv.Manager()
	key, err := mgr.JobKeyFor(req)
	if err != nil {
		t.Fatal(err)
	}
	owner := mgr.Ring().Owner(key)
	for i, nd := range nodes {
		if nd.url == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster member", owner)
	return -1
}

// nonOwnerIndex returns some node that does NOT own the request's key.
func nonOwnerIndex(t *testing.T, nodes []*testNode, req SubmitRequest) int {
	return (ownerIndex(t, nodes, req) + 1) % len(nodes)
}

// TestClusterForwardsToOwnerAndSharesCache pins the sharded-cache contract:
// the same problem submitted through every node is computed exactly once
// cluster-wide — the owner solves and caches, everyone else forwards and is
// answered from the owner's cache (a cross-shard hit).
func TestClusterForwardsToOwnerAndSharesCache(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	req := clusterRequest(3)
	own := ownerIndex(t, nodes, req)

	var docs [][]byte
	for i, nd := range nodes {
		v, code := submitTo(t, nd.url, req, nil)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("submit via node %d: status %d", i, code)
		}
		done := v
		if v.State != JobDone {
			done = waitDoneOn(t, nd.url, v.ID, 60*time.Second)
		}
		docs = append(docs, done.Result)
		if i != own && !done.Remote && !done.Coalesced {
			t.Errorf("node %d (non-owner) reports remote=%v coalesced=%v; want the owner's result", i, done.Remote, done.Coalesced)
		}
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(docs[0], docs[i]) {
			t.Fatalf("node %d returned a different document:\n%s\nvs\n%s", i, docs[0], docs[i])
		}
	}

	var solves, forwards, crossHits int64
	for _, nd := range nodes {
		s := metricsOf(t, nd.url)
		solves += s.SolvesTotal
		forwards += s.ForwardsTotal
		crossHits += s.CrossShardHits
	}
	if solves != 1 {
		t.Errorf("cluster-wide solves = %d, want exactly 1", solves)
	}
	// Both non-owner submissions forward; at least the later one must find
	// the plan already in the owner's cache. (Whether the earlier one does
	// depends on whether the owner's own submission came first.)
	if forwards != 2 || crossHits < 1 {
		t.Errorf("forwards = %d, cross-shard hits = %d, want 2 forwards and >= 1 hit", forwards, crossHits)
	}
}

// TestClusterStormCoalesces drives an identical-key storm at one node and
// checks the cluster computes the plan once, with concurrent duplicates
// coalesced or answered from cache.
func TestClusterStormCoalesces(t *testing.T) {
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Workers = 4
		cfg.QueueDepth = 128
	})
	req := clusterRequest(11)
	entry := nodes[nonOwnerIndex(t, nodes, req)]

	const storm = 24
	var wg sync.WaitGroup
	ids := make([]string, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, code := submitTo(t, entry.url, req, nil)
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Errorf("storm submit %d: status %d", i, code)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != "" {
			waitDoneOn(t, entry.url, id, 60*time.Second)
		}
	}

	var solves, coalesced int64
	for _, nd := range nodes {
		s := metricsOf(t, nd.url)
		solves += s.SolvesTotal
		coalesced += s.CoalescedTotal
	}
	if solves != 1 {
		t.Errorf("storm of %d identical jobs caused %d solves, want 1", storm, solves)
	}
	if coalesced == 0 {
		t.Error("storm produced no coalesced jobs")
	}
}

// TestClusterFallbackWhenOwnerUnreachable kills a key's owner and checks the
// surviving node falls back to local computation instead of failing the job.
func TestClusterFallbackWhenOwnerUnreachable(t *testing.T) {
	// Build a 2-node membership but only start node 0; node 1's address is a
	// listener we close immediately (connection refused).
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	selfURL := "http://" + l.Addr().String()
	cfg := quickCfg()
	cfg.Self = selfURL
	cfg.Peers = []string{selfURL, deadURL}
	srv := New(cfg)
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	// Find a request owned by the dead node.
	mgr := srv.Manager()
	var req SubmitRequest
	for seed := int64(1); ; seed++ {
		req = clusterRequest(seed)
		key, err := mgr.JobKeyFor(req)
		if err != nil {
			t.Fatal(err)
		}
		if mgr.Ring().Owner(key) == deadURL {
			break
		}
		if seed > 100 {
			t.Fatal("no seed in 1..100 hashed to the dead peer")
		}
	}

	v, code := submitTo(t, selfURL, req, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDoneOn(t, selfURL, v.ID, 60*time.Second)
	if done.Remote {
		t.Error("job reported remote though the owner is dead")
	}
	s := metricsOf(t, selfURL)
	if s.ForwardFailures == 0 {
		t.Error("no forward failure recorded")
	}
	if s.SolvesTotal == 0 {
		t.Error("no local fallback solve recorded")
	}
}

// TestClusterDrainHandsBackForwardedWork pins the drain contract of the
// graceful-drain satellite: when the owner is draining it refuses forwarded
// work with 503 and the forwarding node finishes the job locally; meanwhile
// the draining node completes everything it accepted — an in-flight managed
// run and queued forwarded jobs — and drops nothing silently.
func TestClusterDrainHandsBackForwardedWork(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 64
	})

	// A request owned by node 1, which we will drain.
	var req SubmitRequest
	for seed := int64(1); ; seed++ {
		req = clusterRequest(seed)
		if ownerIndex(t, nodes, req) == 1 {
			break
		}
		if seed > 100 {
			t.Fatal("no seed hashed to node 1")
		}
	}

	// Occupy node 1 with an in-flight managed run and park a forwarded job
	// behind it, then drain. The drain must finish both.
	runBody, _ := json.Marshal(RunRequest{SubmitRequest: SubmitRequest{
		Workflow: "pipeline",
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
		Iters:    2000, // ~600ms execution: reliably in flight when we drain
	}})
	resp, err := http.Post(nodes[1].url+"/v1/runs", "application/json", bytes.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	var runView JobView
	_ = json.NewDecoder(resp.Body).Decode(&runView)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run submit: status %d", resp.StatusCode)
	}
	waitForStateOn(t, nodes[1].url, runView.ID, JobRunning, 30*time.Second)

	fwd, code := submitTo(t, nodes[0].url, req, nil) // forwarded to busy node 1
	if code != http.StatusAccepted {
		t.Fatalf("forwarded submit: status %d", code)
	}

	// Give node 0's worker a moment to put the forwarded job on node 1's
	// queue (behind the running managed run), then drain node 1.
	time.Sleep(200 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := nodes[1].srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The managed run completed during the drain.
	after, err := nodes[1].srv.Manager().Get(runView.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != JobDone || after.Result == nil {
		t.Fatalf("managed run after drain = %q (%s), want done", after.State, after.Error)
	}
	// Nothing on the drained node was dropped: every retained job is done.
	for _, v := range nodes[1].srv.Manager().List() {
		if !v.State.terminal() || v.State == JobFailed {
			t.Errorf("job %s on drained node is %q", v.ID, v.State)
		}
	}

	// The forwarding node's job still completes — either node 1 answered it
	// before refusing new work, or node 0 computed it locally after the 503.
	done := waitDoneOn(t, nodes[0].url, fwd.ID, 60*time.Second)
	if done.Result == nil {
		t.Fatal("forwarded job finished without a result")
	}

	// A fresh submission of a node-1-owned key now falls back to local
	// computation on node 0 (the owner refuses with 503).
	var req2 SubmitRequest
	for seed := int64(101); ; seed++ {
		req2 = clusterRequest(seed)
		if ownerIndex(t, nodes, req2) == 1 {
			break
		}
		if seed > 300 {
			t.Fatal("no seed hashed to node 1")
		}
	}
	v2, code := submitTo(t, nodes[0].url, req2, nil)
	if code != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d", code)
	}
	done2 := waitDoneOn(t, nodes[0].url, v2.ID, 60*time.Second)
	if done2.Remote {
		t.Error("post-drain job reported remote though the owner is draining")
	}
}

// waitForStateOn is waitForState against an arbitrary base URL.
func waitForStateOn(t *testing.T, url, id string, want JobState, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		if code := getJSON(t, url+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("get %s: status %d", id, code)
		}
		if v.State == want {
			return v
		}
		if v.State.terminal() {
			t.Fatalf("job %s reached %q (%s), want %q", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, v.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantQuotaRejects drives one tenant over its token bucket and checks
// the 429 surface plus the quota_rejected counter, while a second tenant
// stays unaffected.
func TestTenantQuotaRejects(t *testing.T) {
	cfg := quickCfg()
	cfg.TenantRate = 0.001 // effectively no refill within the test
	cfg.TenantBurst = 2
	cfg.QueueDepth = 64
	_, ts := newTestServer(t, cfg)

	req := func(tenant string, seed int64) SubmitRequest {
		r := clusterRequest(seed)
		r.Tenant = tenant
		return r
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", req("alice", int64(i+1)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("in-burst submit %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req("alice", 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, body %s", resp.StatusCode, body)
	}
	// bob has his own bucket.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", req("bob", 4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("independent tenant: status %d, body %s", resp.StatusCode, body)
	}

	var s Snapshot
	getJSON(t, ts.URL+"/metrics", &s)
	if s.QuotaRejected != 1 {
		t.Errorf("quota_rejected = %d, want 1", s.QuotaRejected)
	}
	if s.Tenants["alice"].Submitted != 2 || s.Tenants["bob"].Submitted != 1 {
		t.Errorf("tenant submitted counts: %+v", s.Tenants)
	}
}

// TestTenantFloodBoundsState floods the manager with 20 000 cached
// submissions under distinct tenant names: the per-tenant metrics rows and
// admission buckets stay bounded — DefaultTenant and weighted names keep
// their own, the first maxOtherTenants other names get theirs, and every
// later name shares overflowTenant's — while each job view still reports
// the name it was submitted under.
func TestTenantFloodBoundsState(t *testing.T) {
	const flood = 20000
	cfg := quickCfg()
	cfg.TenantRate = 1e9
	cfg.TenantWeights = map[string]float64{"gold": 2}
	srv, _ := newTestServer(t, cfg)
	mgr := srv.Manager()
	req := clusterRequest(1)
	key, err := mgr.JobKeyFor(req)
	if err != nil {
		t.Fatal(err)
	}
	mgr.cache.Put(key, json.RawMessage(`{}`))
	submitAs := func(tenant string) {
		t.Helper()
		r := req
		r.Tenant = tenant
		v, err := mgr.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Cached || v.Tenant != r.Tenant {
			t.Fatalf("tenant %q: view %+v, want a cache hit reporting the submitted tenant", tenant, v)
		}
	}
	submitAs(DefaultTenant)
	for i := range flood {
		submitAs(fmt.Sprintf("flood-%05d", i))
	}
	submitAs("gold")

	s := mgr.Snapshot()
	if want := maxOtherTenants + 3; len(s.Tenants) != want {
		t.Errorf("%d tenant rows, want %d", len(s.Tenants), want)
	}
	for name, submitted := range map[string]int64{
		DefaultTenant: 1, "gold": 1, "flood-00000": 1,
		fmt.Sprintf("flood-%05d", maxOtherTenants-1): 1,
		overflowTenant: flood - maxOtherTenants,
	} {
		if got := s.Tenants[name].Submitted; got != submitted {
			t.Errorf("tenant %q submitted %d, want %d", name, got, submitted)
		}
	}
	if _, ok := s.Tenants[fmt.Sprintf("flood-%05d", maxOtherTenants)]; ok {
		t.Error("a name past the bound got its own row")
	}
	if n := len(mgr.quota.buckets); n != maxOtherTenants+3 {
		t.Errorf("%d admission buckets, want %d", n, maxOtherTenants+3)
	}
}

// TestRequestIDPropagation checks the trace ID surface: a provided
// X-Request-Id is echoed in the job view, and absent one a random ID is
// minted.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())

	v, code := submitTo(t, ts.URL, clusterRequest(21), map[string]string{"X-Request-Id": "trace-me-42"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if v.RequestID != "trace-me-42" {
		t.Errorf("request_id = %q, want the provided header", v.RequestID)
	}

	v2, _ := submitTo(t, ts.URL, clusterRequest(22), nil)
	if v2.RequestID == "" || v2.RequestID == v.RequestID {
		t.Errorf("generated request_id = %q, want a fresh non-empty ID", v2.RequestID)
	}
}

// TestRequestBodyCap pins the hardening satellite: an oversized submission
// body is refused with 413, not read to completion.
func TestRequestBodyCap(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxRequestBytes = 1024
	_, ts := newTestServer(t, cfg)

	big := SubmitRequest{Program: "% " + string(bytes.Repeat([]byte{'x'}, 4096)) + "\nminimize C in totalcost(C)."}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestFairSchedulingUnderSaturation builds a backlog for one tenant behind
// a blocked worker, then submits a second tenant's job and checks it is not
// starved behind the backlog when the worker starts draining.
func TestFairSchedulingUnderSaturation(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	cfg.QueueDepth = 64
	srv, ts := newTestServer(t, cfg)

	// Park the single worker on a slow blocker so a real backlog can form
	// (solves are CPU-bound, so without this the queue drains as fast as the
	// test can submit).
	blocker := slowRequest(1)
	blocker.Tenant = "hog"
	bv := submit(t, ts, blocker, http.StatusAccepted)
	waitForState(t, ts, bv.ID, JobRunning, 30*time.Second)

	// Backlog: 7 more hog jobs, then one job from a second tenant.
	var hogIDs []string
	for i := 0; i < 7; i++ {
		r := clusterRequest(int64(100 + i))
		r.Tenant = "hog"
		v := submit(t, ts, r, http.StatusAccepted)
		hogIDs = append(hogIDs, v.ID)
	}
	r := clusterRequest(500)
	r.Tenant = "mouse"
	mouse := submit(t, ts, r, http.StatusAccepted)

	// Release the worker, let everything drain, then compare server-side
	// dispatch timestamps (polling for the mouse's completion is too coarse:
	// quick jobs finish faster than a poll interval).
	if resp, _ := http.Post(ts.URL+"/v1/jobs/"+bv.ID+"/cancel", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: status %d", resp.StatusCode)
	}
	mv := waitForState(t, ts, mouse.ID, JobDone, 60*time.Second)
	for _, id := range hogIDs {
		waitForState(t, ts, id, JobDone, 60*time.Second)
	}

	// Fair scheduling serves the mouse after at most one hog job from the
	// backlog (the first dequeue may tie-break to the hog): almost all of the
	// backlog must have been dispatched after the mouse.
	before := 0
	for _, id := range hogIDs {
		v, err := srv.Manager().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Started != nil && mv.Started != nil && v.Started.Before(*mv.Started) {
			before++
		}
	}
	if before > 2 {
		t.Errorf("%d of 7 backlogged hog jobs were dispatched before the mouse's single job; fair queue should have served the mouse after ~1 hog job", before)
	}

	var s Snapshot
	getJSON(t, ts.URL+"/metrics", &s)
	if s.Tenants["hog"].Done == 0 && s.Tenants["hog"].QueueDepth == 0 {
		t.Errorf("tenant series missing hog: %+v", s.Tenants)
	}
	if s.Tenants["mouse"].Done != 1 {
		t.Errorf("mouse done = %d, want 1", s.Tenants["mouse"].Done)
	}
}

// TestMetricsGauges checks the new queue-depth and worker-utilization gauges
// exist and move.
func TestMetricsGauges(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	cfg.QueueDepth = 16
	_, ts := newTestServer(t, cfg)

	// Park one slow job on the single worker and queue two more behind it.
	running := submit(t, ts, slowRequest(1), http.StatusAccepted)
	waitForState(t, ts, running.ID, JobRunning, 30*time.Second)
	q1 := submit(t, ts, slowRequest(2), http.StatusAccepted)
	q2 := submit(t, ts, slowRequest(3), http.StatusAccepted)

	var s Snapshot
	getJSON(t, ts.URL+"/metrics", &s)
	if s.Workers != 1 || s.WorkersBusy != 1 || s.WorkerUtilization != 1 {
		t.Errorf("worker gauges = %d/%d (util %v), want 1/1 (1)", s.WorkersBusy, s.Workers, s.WorkerUtilization)
	}
	if s.QueueDepth != 2 {
		t.Errorf("queue_depth = %d, want 2", s.QueueDepth)
	}
	if s.Tenants[DefaultTenant].QueueDepth != 2 {
		t.Errorf("tenant queue_depth = %d, want 2", s.Tenants[DefaultTenant].QueueDepth)
	}

	for _, id := range []string{running.ID, q1.ID, q2.ID} {
		http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/metrics", &s)
		if s.WorkersBusy == 0 && s.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not return to zero: busy=%d depth=%d", s.WorkersBusy, s.QueueDepth)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
