package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deco"
)

// newTestServer starts the service over httptest; workers are shut down with
// the test unless the test already shut the server down itself.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Manager().Shutdown(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest, wantCode int) JobView {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != wantCode {
		t.Fatalf("submit: status %d, want %d; body: %s", resp.StatusCode, wantCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("submit response: %v; body: %s", err, body)
	}
	return v
}

// waitForState polls the job until it reaches want (terminal mismatches fail
// immediately) or the deadline passes.
func waitForState(t *testing.T, ts *httptest.Server, id string, want JobState, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("get %s: status %d", id, code)
		}
		if v.State == want {
			return v
		}
		switch v.State {
		case JobDone, JobFailed, JobCancelled:
			t.Fatalf("job %s reached terminal state %q (error: %s), want %q", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q after %v, want %q", id, v.State, timeout, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// quickCfg solves small problems in tens of milliseconds.
func quickCfg() Config {
	return Config{Workers: 2, QueueDepth: 8, CacheCapacity: 16, DefaultIters: 20, DefaultSearchBudget: 120}
}

func TestSubmitPollResultHappyPath(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())

	v := submit(t, ts, SubmitRequest{
		Workflow: "pipeline",
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
	}, http.StatusAccepted)
	if v.ID == "" || v.State != JobQueued {
		t.Fatalf("submit view = %+v, want queued with an ID", v)
	}

	done := waitForState(t, ts, v.ID, JobDone, 30*time.Second)
	if done.Cached {
		t.Error("first solve reported as cached")
	}
	var res PlanResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Tasks == 0 || len(res.Assignments) != res.Tasks {
		t.Fatalf("result has %d assignments for %d tasks", len(res.Assignments), res.Tasks)
	}
	for _, a := range res.Assignments {
		if a.Task == "" || a.Type == "" {
			t.Fatalf("incomplete assignment %+v", a)
		}
	}
	if !res.Feasible {
		t.Error("generous deadline should be feasible")
	}

	// The job listing shows it without the result payload.
	var list struct{ Jobs []JobView }
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list = %+v, want the one job without result", list.Jobs)
	}
}

func TestCacheHitOnIdenticalResubmission(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	req := SubmitRequest{
		Workflow: "montage",
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
	}

	first := submit(t, ts, req, http.StatusAccepted)
	firstDone := waitForState(t, ts, first.ID, JobDone, 60*time.Second)

	// Identical resubmission: answered synchronously from the cache.
	second := submit(t, ts, req, http.StatusOK)
	if !second.Cached || second.State != JobDone {
		t.Fatalf("resubmission = %+v, want cached done", second)
	}
	if !bytes.Equal(firstDone.Result, second.Result) {
		t.Errorf("cached plan differs from the original:\n%s\nvs\n%s", firstDone.Result, second.Result)
	}

	// A different problem (new seed regenerates the synthetic workflow) must
	// not hit.
	req2 := req
	req2.Seed = 7
	third := submit(t, ts, req2, http.StatusAccepted)
	waitForState(t, ts, third.ID, JobDone, 60*time.Second)

	var snap Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", snap.CacheHits)
	}
	if snap.CacheMisses != 2 {
		t.Errorf("cache_misses = %d, want 2", snap.CacheMisses)
	}
	if snap.JobsDone != 3 {
		t.Errorf("jobs_done = %d, want 3", snap.JobsDone)
	}
	if snap.SolveSamples != 2 {
		t.Errorf("solve_samples = %d, want 2 (cache hits don't count)", snap.SolveSamples)
	}
	if snap.SolveP50Ms <= 0 || snap.SolveP95Ms < snap.SolveP50Ms {
		t.Errorf("latency quantiles p50=%v p95=%v look wrong", snap.SolveP50Ms, snap.SolveP95Ms)
	}
}

// CacheCapacity follows the EvalCacheCapacity convention: 0 takes the
// default plan cache, a negative capacity disables it, so an identical
// resubmission is solved again.
func TestCacheCapacityNegativeDisables(t *testing.T) {
	req := SubmitRequest{Workflow: "pipeline", Deadline: &PctBound{Percentile: 0.9, Value: 40000}}
	for _, tc := range []struct {
		capacity int
		cached   bool
	}{{-1, false}, {0, true}} {
		cfg := quickCfg()
		cfg.CacheCapacity = tc.capacity
		_, ts := newTestServer(t, cfg)
		first := submit(t, ts, req, http.StatusAccepted)
		waitForState(t, ts, first.ID, JobDone, 30*time.Second)
		code := http.StatusAccepted
		if tc.cached {
			code = http.StatusOK
		}
		again := submit(t, ts, req, code)
		if again.Cached != tc.cached {
			t.Errorf("capacity %d: resubmission cached = %v, want %v", tc.capacity, again.Cached, tc.cached)
		}
		if !tc.cached {
			if done := waitForState(t, ts, again.ID, JobDone, 30*time.Second); done.Cached {
				t.Errorf("capacity %d: resubmission answered from the cache", tc.capacity)
			}
		}
	}
}

// A request may ask for at most MaxIters worlds per state: the bound keeps
// one request from allocating the daemon out of memory.
func TestSubmitItersBound(t *testing.T) {
	srv, ts := newTestServer(t, quickCfg())
	req := SubmitRequest{Workflow: "pipeline", Deadline: &PctBound{Value: 40000}, Iters: MaxIters + 1}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", req); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("iters %d: status %d, want 400; body: %s", req.Iters, resp.StatusCode, body)
	}
	req.Iters = MaxIters
	if _, _, err := srv.Manager().normalize(&req); err != nil {
		t.Errorf("iters %d rejected: %v", MaxIters, err)
	}
}

// The device decides how a state's worlds spread over the machine, so a
// request cannot carry a thread bound: the field is unknown and gets 400.
func TestSubmitRejectsThreadsField(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	body := map[string]any{"workflow": "pipeline", "deadline": map[string]any{"value": 40000}, "threads": 2}
	if resp, b := postJSON(t, ts.URL+"/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("threads field: status %d, want 400; body: %s", resp.StatusCode, b)
	}
}

// slowRequest is a problem big enough to keep a worker busy for a long time:
// a large synthetic Montage with a heavy Monte-Carlo and search budget.
func slowRequest(seed int64) SubmitRequest {
	return SubmitRequest{
		Workflow:     "montage8",
		Deadline:     &PctBound{Percentile: 0.95, Value: 40000},
		Seed:         seed,
		Iters:        4000,
		SearchBudget: 100000,
	}
}

func TestCancelRunningJobStopsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DefaultIters: 20, DefaultSearchBudget: 100})

	v := submit(t, ts, slowRequest(1), http.StatusAccepted)
	waitForState(t, ts, v.ID, JobRunning, 30*time.Second)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/"+v.ID+"/cancel", nil)
	cancelled := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The uncancelled solve would run for minutes (100k states × 4000
	// iterations); the cancelled one must abort within seconds.
	final := waitForState(t, ts, v.ID, JobCancelled, 15*time.Second)
	if took := time.Since(cancelled); took > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", took)
	}
	if final.Result != nil {
		t.Error("cancelled job should carry no result")
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.JobsCancelled != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", snap.JobsCancelled)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DefaultIters: 20, DefaultSearchBudget: 100})

	running := submit(t, ts, slowRequest(1), http.StatusAccepted)
	waitForState(t, ts, running.ID, JobRunning, 30*time.Second)
	queued := submit(t, ts, slowRequest(2), http.StatusAccepted)

	if _, err := srv.Manager().Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	v, err := srv.Manager().Get(queued.ID)
	if err != nil || v.State != JobCancelled {
		t.Fatalf("queued job after cancel: %+v (err %v), want cancelled", v, err)
	}
	if _, err := srv.Manager().Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts, running.ID, JobCancelled, 15*time.Second)
}

func TestQueueFullRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultIters: 20, DefaultSearchBudget: 100})

	// Fill the single worker, then the single queue slot.
	a := submit(t, ts, slowRequest(1), http.StatusAccepted)
	waitForState(t, ts, a.ID, JobRunning, 30*time.Second)
	b := submit(t, ts, slowRequest(2), http.StatusAccepted)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", slowRequest(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429; body: %s", resp.StatusCode, body)
	}

	// The rejected job must not appear in the table.
	var list struct{ Jobs []JobView }
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs after rejection, want 2", len(list.Jobs))
	}
	for _, id := range []string{a.ID, b.ID} {
		if _, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGracefulShutdownDrainsInFlightJob(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 1
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v := submit(t, ts, SubmitRequest{
		Workflow: "montage",
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
		// ~140 ms on a 2-core host, several 20 ms poll intervals: reliably
		// observable in flight.
		Iters:        5000,
		SearchBudget: 400,
	}, http.StatusAccepted)
	waitForState(t, ts, v.ID, JobRunning, 30*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}

	after, err := srv.Manager().Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != JobDone || after.Result == nil {
		t.Fatalf("in-flight job after shutdown = %q (error %q), want done with a result", after.State, after.Error)
	}

	// New submissions are refused once draining.
	if _, err := srv.Manager().Submit(SubmitRequest{Workflow: "pipeline", Deadline: &PctBound{Value: 1000}}); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestSubmitValidationAndRouting(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())

	bad := []SubmitRequest{
		{},                     // no source
		{Workflow: "pipeline"}, // no constraint
		{Workflow: "nosuchapp", Deadline: &PctBound{Value: 100}},               // unknown workflow
		{Workflow: "pipeline", Program: "x.", Deadline: &PctBound{Value: 1}},   // two sources
		{Workflow: "pipeline", Deadline: &PctBound{Value: -5}},                 // non-positive bound
		{Workflow: "pipeline", Goal: "speed", Deadline: &PctBound{Value: 100}}, // bad goal
		{Program: "minimize C in totalcost(C)."},                               // WLog program without imports still parses; constraints forbidden
	}
	// The last case is actually valid WLog; replace it with a parse error.
	bad[len(bad)-1] = SubmitRequest{Program: "minimize C in"}
	for i, req := range bad {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400; body: %s", i, resp.StatusCode, body)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, health)
	}
}

func TestProgramModeSolvesWLog(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	prog := `import(amazonec2).
import(pipeline).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%,40000s).
`
	v := submit(t, ts, SubmitRequest{Program: prog}, http.StatusAccepted)
	done := waitForState(t, ts, v.ID, JobDone, 60*time.Second)
	var res PlanResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Fatal("program mode returned an empty plan")
	}
	// Identical program resubmission hits the cache too.
	again := submit(t, ts, SubmitRequest{Program: prog}, http.StatusOK)
	if !again.Cached {
		t.Error("identical program resubmission missed the cache")
	}
}

func TestJobRetentionPruning(t *testing.T) {
	cfg := quickCfg()
	cfg.MaxJobsRetained = 3
	srv, ts := newTestServer(t, cfg)

	var last string
	for i := 0; i < 6; i++ {
		v := submit(t, ts, SubmitRequest{
			Workflow: "pipeline",
			Seed:     int64(i + 1), // distinct problems: no cache hits
			Deadline: &PctBound{Percentile: 0.9, Value: 40000},
		}, http.StatusAccepted)
		last = v.ID
		waitForState(t, ts, v.ID, JobDone, 30*time.Second)
	}
	if n := len(srv.Manager().List()); n > 3 {
		t.Errorf("retained %d jobs, want <= 3", n)
	}
	if _, err := srv.Manager().Get(last); err != nil {
		t.Errorf("most recent job was pruned: %v", err)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"jobs_queued", "jobs_running", "jobs_done", "jobs_failed", "jobs_cancelled",
		"cache_hits", "cache_misses", "cache_size", "solve_samples", "solve_latency_p50_ms", "solve_latency_p95_ms"} {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing %q", k)
		}
	}
}

func TestMetricsReservoirQuantiles(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 1000; i++ {
		m.ObserveSolve("default", float64(i)/1000) // 1ms .. 1000ms uniformly
	}
	s := m.Snapshot(nil, nil)
	if s.SolveSamples != 1000 {
		t.Fatalf("samples = %d, want 1000", s.SolveSamples)
	}
	if s.SolveP50Ms < 300 || s.SolveP50Ms > 700 {
		t.Errorf("p50 = %vms, want ~500ms from a uniform 1..1000ms stream", s.SolveP50Ms)
	}
	if s.SolveP95Ms < 850 || s.SolveP95Ms > 1000 {
		t.Errorf("p95 = %vms, want ~950ms", s.SolveP95Ms)
	}
}

// quantile must implement nearest rank, ceil(p*n) 1-based: the old
// truncation read one element too high when p*n landed on an integer (p50
// of [1,2,3,4] came back 3).
func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.95, 7},
		{[]float64{1, 2, 3, 4}, 0.50, 2}, // rank ceil(2)=2 → 2nd element
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 0.95, 4},
		{[]float64{1, 2, 3, 4}, 1.00, 4},
		{[]float64{1, 2, 3, 4, 5}, 0.50, 3}, // rank ceil(2.5)=3 → median
		{[]float64{1, 2, 3, 4, 5}, 0.95, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.0, 1},
	}
	for _, tc := range cases {
		if got := quantile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestWorkflowFingerprintDistinguishesStructure(t *testing.T) {
	m := &Manager{catHash: "x", cfg: Config{DefaultSeed: 1, DefaultIters: 10, DefaultSearchBudget: 10}}
	base := SubmitRequest{Workflow: "pipeline", Seed: 1, Iters: 10, SearchBudget: 10,
		Goal: "cost", Deadline: &PctBound{Percentile: 0.9, Value: 100}}

	mk := func(req SubmitRequest) string {
		wf, err := deco.NamedWorkflow(req.Workflow, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		return m.jobKey(&req, wf)
	}
	k1 := mk(base)
	if k2 := mk(base); k2 != k1 {
		t.Error("identical requests produced different keys")
	}
	diff := base
	diff.Seed = 2 // different jitter → different workflow structure
	if mk(diff) == k1 {
		t.Error("different workflow produced the same key")
	}
	diff2 := base
	diff2.Deadline = &PctBound{Percentile: 0.9, Value: 101}
	if mk(diff2) == k1 {
		t.Error("different constraint produced the same key")
	}
	diff3 := base
	diff3.Iters = 11
	if mk(diff3) == k1 {
		t.Error("different iteration budget produced the same key")
	}
}

// TestEnsembleJobAndCacheScopeMetrics submits ensemble-admission programs and
// checks (a) the job routes to the admission solver and returns an
// EnsembleResult document, and (b) /metrics breaks eval-cache traffic down by
// job kind, with the second ensemble job (same members, different budget)
// hitting the member-planning evaluations the first one warmed.
func TestEnsembleJobAndCacheScopeMetrics(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	prog := func(budget string) string {
		return `import(amazonec2).
import(pipeline).
ensemble(constant, 3).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, ` + budget + `).
`
	}

	v := submit(t, ts, SubmitRequest{Program: prog("40")}, http.StatusAccepted)
	if v.Kind != KindEnsemble {
		t.Fatalf("job kind = %q, want %q", v.Kind, KindEnsemble)
	}
	done := waitForState(t, ts, v.ID, JobDone, 120*time.Second)
	var res deco.EnsembleResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("ensemble result: %v; body: %s", err, done.Result)
	}
	if res.Kind != "constant" || res.N != 3 {
		t.Fatalf("result header: %+v", res)
	}
	if len(res.Admitted) == 0 || !res.Feasible {
		t.Fatalf("expected a feasible admission under a generous budget: %+v", res)
	}

	// A different budget is a different job (no plan-cache hit) but the same
	// member-planning searches: their evaluations must come out of the shared
	// eval cache, attributed to the "ensemble" scope.
	v2 := submit(t, ts, SubmitRequest{Program: prog("35")}, http.StatusAccepted)
	waitForState(t, ts, v2.ID, JobDone, 120*time.Second)

	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	sc, ok := m.EvalCacheScopes[KindEnsemble]
	if !ok {
		t.Fatalf("metrics missing eval-cache scope %q: %+v", KindEnsemble, m.EvalCacheScopes)
	}
	if sc.Misses == 0 {
		t.Error("ensemble scope recorded no eval-cache misses")
	}
	if sc.Hits == 0 {
		t.Error("second ensemble job did not hit the member-planning evaluations the first warmed")
	}

	// Identical resubmission is a whole-plan cache hit.
	again := submit(t, ts, SubmitRequest{Program: prog("40")}, http.StatusOK)
	if !again.Cached {
		t.Error("identical ensemble resubmission missed the plan cache")
	}
}

// TestEnsembleProgramRejectedAsRun pins the run-mode contract: ensemble
// programs have no executable plan, so managed runs must refuse them.
func TestEnsembleProgramRejectedAsRun(t *testing.T) {
	_, ts := newTestServer(t, quickCfg())
	prog := `import(amazonec2).
import(pipeline).
ensemble(constant, 2).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, 40).
`
	resp, body := postJSON(t, ts.URL+"/v1/runs", RunRequest{SubmitRequest: SubmitRequest{Program: prog}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("run submission of ensemble program: status %d, want 400; body: %s", resp.StatusCode, body)
	}
}

// TestAdaptiveJobStatsAndMetrics covers the adaptive-precision wiring end to
// end: an adaptive job solves to the same plan quality as the fixed job, its
// result carries per-job world counters, the two share no cache entry (the
// job key includes the flag), and /metrics exports the cumulative
// worlds_evaluated_total / worlds_saved_total counters.
func TestAdaptiveJobStatsAndMetrics(t *testing.T) {
	// The evaluation cache is disabled so the adaptive solve evaluates live:
	// complete cached evaluations are shared between fixed and adaptive
	// engines (they are bit-identical), which would leave the adaptive path
	// nothing to run.
	cfg := quickCfg()
	cfg.EvalCacheCapacity = -1
	_, ts := newTestServer(t, cfg)

	req := SubmitRequest{
		Workflow: "pipeline",
		Deadline: &PctBound{Percentile: 0.9, Value: 40000},
	}
	fixed := waitForState(t, ts, submit(t, ts, req, http.StatusAccepted).ID, JobDone, 30*time.Second)
	var fixedRes PlanResult
	if err := json.Unmarshal(fixed.Result, &fixedRes); err != nil {
		t.Fatal(err)
	}
	if fixedRes.WorldsEvaluated != 0 || fixedRes.WorldsSaved != 0 {
		t.Fatalf("fixed-precision solve reported adaptive stats: %+v", fixedRes)
	}

	on := true
	req.Adaptive = &on
	adaptive := waitForState(t, ts, submit(t, ts, req, http.StatusAccepted).ID, JobDone, 30*time.Second)
	if adaptive.Cached {
		t.Fatal("adaptive job hit the fixed job's cache entry: the key must include the flag")
	}
	var adRes PlanResult
	if err := json.Unmarshal(adaptive.Result, &adRes); err != nil {
		t.Fatal(err)
	}
	if adRes.WorldsEvaluated <= 0 {
		t.Fatalf("adaptive solve ran no worlds on the adaptive path: %+v", adRes)
	}
	if adRes.WorldsSaved < 0 {
		t.Fatalf("negative worlds saved: %+v", adRes)
	}
	if adRes.Feasible != fixedRes.Feasible || adRes.Objective != fixedRes.Objective {
		t.Fatalf("adaptive plan quality diverged: fixed (feasible=%v, obj=%v) adaptive (feasible=%v, obj=%v)",
			fixedRes.Feasible, fixedRes.Objective, adRes.Feasible, adRes.Objective)
	}

	var m struct {
		WorldsEvaluatedTotal int64 `json:"worlds_evaluated_total"`
		WorldsSavedTotal     int64 `json:"worlds_saved_total"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if m.WorldsEvaluatedTotal != adRes.WorldsEvaluated || m.WorldsSavedTotal != adRes.WorldsSaved {
		t.Fatalf("metrics totals (%d, %d) != job stats (%d, %d)",
			m.WorldsEvaluatedTotal, m.WorldsSavedTotal, adRes.WorldsEvaluated, adRes.WorldsSaved)
	}
}
