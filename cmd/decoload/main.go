// Command decoload is the load-generator harness for the decod cluster: it
// spins up an in-process cluster of service nodes on loopback listeners,
// drives concurrent planning jobs from many tenants with a configurable key
// skew, and writes the measured behaviour into a benchmark document
// (BENCH_service.json by default):
//
//   - an identical-key storm, proving duplicate submissions coalesce into a
//     single computation cluster-wide;
//   - a warm-cache measurement phase over the sharded cluster (tail
//     latencies, forward and cross-shard-hit counts);
//   - the same measurement against a shared-nothing control cluster (same
//     nodes, no peer list), quantifying what sharding buys: with the cache
//     sharded by job key every node can serve every warm key, while
//     shared-nothing nodes each hold only the fragment they happened to
//     compute;
//   - a two-tenant fairness run against a single saturated node, checking
//     each equal-weight tenant gets within 2x of its equal share.
//
// With -check the process exits non-zero unless the coalescing, sharding and
// fairness acceptance criteria hold, which is how CI consumes it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"deco/internal/hoststamp"
	"deco/internal/service"
)

type stormResult struct {
	Jobs      int     `json:"jobs"`
	Coalesced int64   `json:"coalesced"`
	Rate      float64 `json:"coalescing_rate"`
	Solves    int64   `json:"solves"`
}

type phaseResult struct {
	Jobs              int     `json:"jobs"`
	Dropped           int     `json:"dropped"`
	P50Ms             float64 `json:"p50_ms"`
	P95Ms             float64 `json:"p95_ms"`
	P99Ms             float64 `json:"p99_ms"`
	Forwards          int64   `json:"forwards"`
	ForwardFailures   int64   `json:"forward_failures"`
	CrossShardHits    int64   `json:"cross_shard_hits"`
	CrossShardHitRate float64 `json:"cross_shard_hit_rate"`
	CacheHits         int64   `json:"cache_hits"`
}

type fairnessResult struct {
	JobsPerTenant int              `json:"jobs_per_tenant"`
	Completed     map[string]int64 `json:"completed"`
	MaxMinRatio   float64          `json:"max_min_ratio"`
}

type benchDoc struct {
	Host           hoststamp.Host `json:"host"`
	Nodes          int            `json:"nodes"`
	WorkersPerNode int            `json:"workers_per_node"`
	Keys           int            `json:"keys"`
	Tenants        int            `json:"tenants"`
	Skew           float64        `json:"skew"`
	Storm          stormResult    `json:"storm"`
	Sharded        phaseResult    `json:"sharded"`
	SharedNothing  phaseResult    `json:"shared_nothing"`
	Fairness       fairnessResult `json:"fairness"`
	SpeedupP99     float64        `json:"speedup_p99"`
}

// node is one in-process decod instance.
type node struct {
	srv *service.Server
	url string
}

// startCluster boots n service nodes on loopback listeners. When shard is
// false the nodes share nothing: no peer list, so every node solves every
// job itself.
func startCluster(n, workers int, shard bool, weights map[string]float64) []*node {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("decoload: listen: %v", err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		cfg := service.Config{
			Workers:             workers,
			QueueDepth:          4096,
			CacheCapacity:       4096,
			DefaultIters:        20,
			DefaultSearchBudget: 120,
			TenantWeights:       weights,
			// A generous hedge keeps the storm phase honest: duplicates
			// should be answered by coalescing and forwarding, not by
			// impatient local recomputation.
			ForwardHedge: 30 * time.Second,
		}
		if shard {
			cfg.Self = urls[i]
			cfg.Peers = append([]string(nil), urls...)
		}
		srv := service.New(cfg)
		go srv.Serve(listeners[i])
		nodes[i] = &node{srv: srv, url: urls[i]}
	}
	return nodes
}

func stopCluster(nodes []*node) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, nd := range nodes {
		_ = nd.srv.Shutdown(ctx)
	}
}

// request builds the i-th distinct problem; the seed makes the job key
// unique, so key identity is exactly seed identity. The iteration count is
// deliberately heavy: a cold solve must dwarf the cost of a peer round trip,
// as it would in production, or the sharded-vs-shared-nothing comparison
// would only measure scheduler noise.
func request(seed int64, tenant string) service.SubmitRequest {
	p := 0.9
	return service.SubmitRequest{
		Workflow: "pipeline",
		Seed:     seed,
		Tenant:   tenant,
		Iters:    1500,
		Deadline: &service.PctBound{Percentile: p, Value: 40000},
	}
}

// submitAndWait drives one job to a terminal state and returns its latency.
func submitAndWait(url string, req service.SubmitRequest) (time.Duration, error) {
	start := time.Now()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	for !terminal(v.State) {
		time.Sleep(2 * time.Millisecond)
		r, err := http.Get(url + "/v1/jobs/" + v.ID)
		if err != nil {
			return 0, err
		}
		err = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	if v.State != service.JobDone {
		return 0, fmt.Errorf("job %s: %s (%s)", v.ID, v.State, v.Error)
	}
	return time.Since(start), nil
}

func terminal(s service.JobState) bool {
	return s == service.JobDone || s == service.JobFailed || s == service.JobCancelled
}

func metricsOf(url string) (service.Snapshot, error) {
	var s service.Snapshot
	r, err := http.Get(url + "/metrics")
	if err != nil {
		return s, err
	}
	defer r.Body.Close()
	return s, json.NewDecoder(r.Body).Decode(&s)
}

func sumMetrics(nodes []*node) service.Snapshot {
	var total service.Snapshot
	for _, nd := range nodes {
		s, err := metricsOf(nd.url)
		if err != nil {
			log.Fatalf("decoload: metrics: %v", err)
		}
		total.SolvesTotal += s.SolvesTotal
		total.CoalescedTotal += s.CoalescedTotal
		total.ForwardsTotal += s.ForwardsTotal
		total.ForwardFailures += s.ForwardFailures
		total.CrossShardHits += s.CrossShardHits
		total.CacheHits += s.CacheHits
	}
	return total
}

func quantileMs(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// storm throws dup identical submissions at one node concurrently and
// reports how many computations actually happened.
func storm(nodes []*node, dup, tenants int) stormResult {
	before := sumMetrics(nodes)
	var wg sync.WaitGroup
	errs := make(chan error, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spread the duplicates across tenants and nodes: coalescing is
			// deliberately tenant-blind and, via forwarding, node-blind.
			req := request(999999, fmt.Sprintf("tenant-%d", i%tenants))
			if _, err := submitAndWait(nodes[i%len(nodes)].url, req); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		log.Fatalf("decoload: storm: %v", err)
	}
	after := sumMetrics(nodes)
	coalesced := after.CoalescedTotal - before.CoalescedTotal
	return stormResult{
		Jobs:      dup,
		Coalesced: coalesced,
		Rate:      float64(coalesced) / float64(dup),
		Solves:    after.SolvesTotal - before.SolvesTotal,
	}
}

// warm seeds every key's plan into the cluster's caches: on a sharded
// cluster each key lands in its owner's cache (reachable from every node);
// shared-nothing nodes each cache only the keys warmed through them.
func warm(nodes []*node, keys, tenants int) {
	for k := 0; k < keys; k++ {
		req := request(int64(k+1), fmt.Sprintf("tenant-%d", k%tenants))
		if _, err := submitAndWait(nodes[k%len(nodes)].url, req); err != nil {
			log.Fatalf("decoload: warmup: %v", err)
		}
	}
}

// measure drives jobs warm-cache jobs with zipf-skewed keys, round-robin
// across nodes and tenants, at the given concurrency, and reports latency
// quantiles plus the cluster's forwarding counters for the phase.
func measure(nodes []*node, jobs, keys, tenants, concurrency int, skew float64, seed int64) phaseResult {
	before := sumMetrics(nodes)
	rng := rand.New(rand.NewSource(seed))
	// Zipf with s=skew over [0, keys): popular keys dominate like a real
	// multi-tenant working set. skew <= 1 degrades to uniform.
	var zipf *rand.Zipf
	if skew > 1 {
		zipf = rand.NewZipf(rng, skew, 1, uint64(keys-1))
	}
	type task struct {
		node string
		req  service.SubmitRequest
	}
	tasks := make([]task, jobs)
	for i := range tasks {
		var key int64
		if zipf != nil {
			key = int64(zipf.Uint64())
		} else {
			key = rng.Int63n(int64(keys))
		}
		tasks[i] = task{
			node: nodes[i%len(nodes)].url,
			req:  request(key+1, fmt.Sprintf("tenant-%d", i%tenants)),
		}
	}

	latencies := make([]time.Duration, 0, jobs)
	var mu sync.Mutex
	var dropped int
	var wg sync.WaitGroup
	sem := make(chan struct{}, concurrency)
	for _, tk := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(tk task) {
			defer wg.Done()
			defer func() { <-sem }()
			d, err := submitAndWait(tk.node, tk.req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				dropped++
				return
			}
			latencies = append(latencies, d)
		}(tk)
	}
	wg.Wait()

	after := sumMetrics(nodes)
	forwards := after.ForwardsTotal - before.ForwardsTotal
	crossHits := after.CrossShardHits - before.CrossShardHits
	res := phaseResult{
		Jobs:            jobs,
		Dropped:         dropped,
		P50Ms:           quantileMs(latencies, 0.50),
		P95Ms:           quantileMs(latencies, 0.95),
		P99Ms:           quantileMs(latencies, 0.99),
		Forwards:        forwards,
		ForwardFailures: after.ForwardFailures - before.ForwardFailures,
		CrossShardHits:  crossHits,
		CacheHits:       after.CacheHits - before.CacheHits,
	}
	if forwards > 0 {
		res.CrossShardHitRate = float64(crossHits) / float64(forwards)
	}
	return res
}

// fairness saturates a single one-worker node with two equal-weight tenants
// — all of tenant a's jobs submitted before any of tenant b's — and reports
// each tenant's completions at the halfway point. Under weighted fair
// scheduling both land near 50%; under FIFO tenant a would finish everything
// first.
func fairness(jobsPerTenant int) fairnessResult {
	nodes := startCluster(1, 1, false, nil)
	defer stopCluster(nodes)
	url := nodes[0].url

	// Park the worker so the full two-tenant backlog forms before any
	// dispatch decisions are made.
	blocker, _ := json.Marshal(service.SubmitRequest{
		Workflow:     "montage8",
		Deadline:     &service.PctBound{Percentile: 0.95, Value: 40000},
		Iters:        4000,
		SearchBudget: 100000,
	})
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(blocker))
	if err != nil {
		log.Fatalf("decoload: fairness blocker: %v", err)
	}
	var bv service.JobView
	_ = json.NewDecoder(resp.Body).Decode(&bv)
	resp.Body.Close()

	submit := func(tenant string, seed int64) {
		body, _ := json.Marshal(request(seed, tenant))
		r, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatalf("decoload: fairness submit: %v", err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			log.Fatalf("decoload: fairness submit: status %d", r.StatusCode)
		}
	}
	// Unique seeds per job: no cache hits, no coalescing, just scheduling.
	for i := 0; i < jobsPerTenant; i++ {
		submit("alpha", int64(1000+i))
	}
	for i := 0; i < jobsPerTenant; i++ {
		submit("beta", int64(2000+i))
	}
	if _, err := http.Post(url+"/v1/jobs/"+bv.ID+"/cancel", "", nil); err != nil {
		log.Fatalf("decoload: fairness cancel: %v", err)
	}

	// Sample per-tenant completions when roughly half the work is done.
	half := int64(jobsPerTenant) // half of 2*jobsPerTenant
	deadline := time.Now().Add(5 * time.Minute)
	for {
		s, err := metricsOf(url)
		if err != nil {
			log.Fatalf("decoload: fairness metrics: %v", err)
		}
		a, b := s.Tenants["alpha"].Done, s.Tenants["beta"].Done
		if a+b >= half || time.Now().After(deadline) {
			maxc, minc := a, b
			if minc > maxc {
				maxc, minc = minc, maxc
			}
			ratio := float64(maxc)
			if minc > 0 {
				ratio = float64(maxc) / float64(minc)
			}
			return fairnessResult{
				JobsPerTenant: jobsPerTenant,
				Completed:     map[string]int64{"alpha": a, "beta": b},
				MaxMinRatio:   ratio,
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func main() {
	nodesN := flag.Int("nodes", 3, "cluster size")
	workers := flag.Int("workers", 2, "worker pool size per node")
	keys := flag.Int("keys", 96, "distinct job keys in the working set")
	jobs := flag.Int("jobs", 320, "jobs per measurement phase")
	tenants := flag.Int("tenants", 8, "number of distinct tenants")
	concurrency := flag.Int("concurrency", 16, "concurrent in-flight jobs during measurement")
	skew := flag.Float64("skew", 1.1, "zipf skew of key popularity (<=1 uniform)")
	stormN := flag.Int("storm", 64, "identical submissions in the coalescing storm")
	fairJobs := flag.Int("fair-jobs", 24, "jobs per tenant in the fairness phase")
	out := flag.String("out", "BENCH_service.json", "output path")
	check := flag.Bool("check", false, "exit non-zero unless acceptance criteria hold")
	flag.Parse()

	doc := benchDoc{
		Host:           hoststamp.Stamp(),
		Nodes:          *nodesN,
		WorkersPerNode: *workers,
		Keys:           *keys,
		Tenants:        *tenants,
		Skew:           *skew,
	}

	log.Printf("decoload: starting %d-node sharded cluster (%d workers/node)", *nodesN, *workers)
	sharded := startCluster(*nodesN, *workers, true, nil)

	log.Printf("decoload: storm: %d identical submissions", *stormN)
	doc.Storm = storm(sharded, *stormN, *tenants)
	log.Printf("decoload: storm: %d/%d coalesced, %d solves", doc.Storm.Coalesced, doc.Storm.Jobs, doc.Storm.Solves)

	log.Printf("decoload: warming %d keys", *keys)
	warm(sharded, *keys, *tenants)
	log.Printf("decoload: measuring sharded: %d jobs, skew %.2f, concurrency %d", *jobs, *skew, *concurrency)
	doc.Sharded = measure(sharded, *jobs, *keys, *tenants, *concurrency, *skew, 42)
	stopCluster(sharded)
	log.Printf("decoload: sharded: p50 %.2fms p95 %.2fms p99 %.2fms, %d forwards, %d cross-shard hits",
		doc.Sharded.P50Ms, doc.Sharded.P95Ms, doc.Sharded.P99Ms, doc.Sharded.Forwards, doc.Sharded.CrossShardHits)

	log.Printf("decoload: starting %d-node shared-nothing control", *nodesN)
	control := startCluster(*nodesN, *workers, false, nil)
	warm(control, *keys, *tenants)
	log.Printf("decoload: measuring shared-nothing control")
	doc.SharedNothing = measure(control, *jobs, *keys, *tenants, *concurrency, *skew, 42)
	stopCluster(control)
	log.Printf("decoload: shared-nothing: p50 %.2fms p95 %.2fms p99 %.2fms",
		doc.SharedNothing.P50Ms, doc.SharedNothing.P95Ms, doc.SharedNothing.P99Ms)

	if doc.Sharded.P99Ms > 0 {
		doc.SpeedupP99 = doc.SharedNothing.P99Ms / doc.Sharded.P99Ms
	}

	log.Printf("decoload: fairness: 2 tenants x %d jobs on a saturated single worker", *fairJobs)
	doc.Fairness = fairness(*fairJobs)
	log.Printf("decoload: fairness: completed %v (max/min %.2f)", doc.Fairness.Completed, doc.Fairness.MaxMinRatio)

	b, _ := json.MarshalIndent(doc, "", "  ")
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatalf("decoload: write %s: %v", *out, err)
	}
	log.Printf("decoload: wrote %s", *out)

	if *check {
		failed := false
		fail := func(format string, args ...any) {
			failed = true
			log.Printf("decoload: CHECK FAILED: "+format, args...)
		}
		if doc.Storm.Coalesced == 0 {
			fail("storm of %d identical jobs coalesced nothing", doc.Storm.Jobs)
		}
		if doc.Storm.Solves > 2 {
			fail("storm of %d identical jobs caused %d solves, want <= 2", doc.Storm.Jobs, doc.Storm.Solves)
		}
		if doc.Sharded.Dropped > 0 || doc.SharedNothing.Dropped > 0 {
			fail("dropped jobs: sharded %d, shared-nothing %d", doc.Sharded.Dropped, doc.SharedNothing.Dropped)
		}
		if doc.Sharded.CrossShardHits == 0 {
			fail("sharded phase recorded no cross-shard cache hits")
		}
		if doc.Sharded.P99Ms >= doc.SharedNothing.P99Ms {
			fail("sharded warm-cache p99 %.2fms not better than shared-nothing %.2fms",
				doc.Sharded.P99Ms, doc.SharedNothing.P99Ms)
		}
		if doc.Fairness.MaxMinRatio > 2 {
			fail("equal-weight tenants diverged: max/min completions %.2f > 2", doc.Fairness.MaxMinRatio)
		}
		if failed {
			os.Exit(1)
		}
		log.Printf("decoload: all checks passed")
	}
}
