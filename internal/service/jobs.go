package service

import (
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/cluster"
	"deco/internal/dag"
	"deco/internal/dax"
)

// JobState is the lifecycle of a planning job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job kinds: the solve dispatch, JobView.Kind, and the evaluation-cache
// scope labels of /metrics all share these names.
const (
	KindPlan     = "plan"     // scheduling job producing a provisioning plan
	KindRun      = "run"      // managed adaptive execution
	KindEnsemble = "ensemble" // ensemble-admission job (program mode only)
)

// DefaultTenant is the tenant jobs without an explicit tenant belong to.
const DefaultTenant = "default"

// overflowTenant keys the per-tenant state shared by late tenant names.
// Clients choose tenant names, so the state each name keys — a metrics row,
// an admission token bucket, a fair-queue FIFO — is bounded: DefaultTenant
// and the names in Config.TenantWeights always keep their own, at most
// maxOtherTenants other names get their own in the order they first arrive,
// and every later name shares overflowTenant's. A job's view still reports
// the name it was submitted under.
const overflowTenant = "(overflow)"

// maxOtherTenants bounds the tenant names outside Config.TenantWeights that
// key their own state.
const maxOtherTenants = 256

// MaxIters caps a request's Monte-Carlo iterations at 100 times the default.
// A solve compiles tasks x types x iters samples up front, so an unbounded
// value would let one request exhaust the daemon's memory.
const MaxIters = 10000

// PctBound is a probabilistic bound: P(X <= Value) >= Percentile. A
// Percentile <= 0 selects the deterministic (expected-value) notion; one
// above 1 is rejected.
type PctBound struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// SubmitRequest is the body of POST /v1/jobs. Exactly one workflow source
// must be set: Workflow (a named synthetic application: montage, montage4,
// montage8, ligo, epigenomics, cybershake, pipeline — or a .dax/.xml path),
// DAX (an inline DAX XML document), or Program (a raw WLog program, which
// carries its own goal and constraints). A program with an ensemble(kind, n)
// fact is an ensemble-admission job: it returns a deco.EnsembleResult
// document instead of a plan.
type SubmitRequest struct {
	Workflow string `json:"workflow,omitempty"`
	DAX      string `json:"dax,omitempty"`
	Program  string `json:"program,omitempty"`

	// Tenant names the submitting tenant for admission quotas, fair
	// scheduling, and per-tenant metrics. Empty means DefaultTenant. The
	// tenant is deliberately NOT part of the job key: identical problems
	// from different tenants share the plan cache and coalesce into one
	// computation — consolidating tenants onto shared capacity is the point
	// of the WaaS setting.
	Tenant string `json:"tenant,omitempty"`

	// Goal is "cost" or "makespan" (workflow/DAX modes only). Empty defaults
	// to "cost" when a deadline is present, else "makespan".
	Goal string `json:"goal,omitempty"`
	// Deadline bounds execution time in seconds; Budget bounds cost in
	// dollars. Workflow/DAX modes require at least one.
	Deadline *PctBound `json:"deadline,omitempty"`
	Budget   *PctBound `json:"budget,omitempty"`

	// Solver knobs; zero values take the server defaults.
	Seed         int64 `json:"seed,omitempty"`
	Iters        int   `json:"iters,omitempty"`
	SearchBudget int   `json:"search_budget,omitempty"`
	// Adaptive toggles adaptive-precision Monte-Carlo inference (a state
	// stops once it is proven infeasible) for this job's solve; absent takes
	// the server default (decod -adaptive). Every verdict is exact, and the
	// plan is backed by a complete evaluation; worlds_evaluated/worlds_saved
	// in the result report the sampling economy.
	Adaptive *bool `json:"adaptive,omitempty"`

	// RequestID is transport metadata, not part of the request body: it is
	// taken from the X-Request-Id header (or generated) and propagated
	// through peer forwarding and log lines so a job can be traced across
	// nodes.
	RequestID string `json:"-"`
}

// Assignment maps one task to its provisioned instance type.
type Assignment struct {
	Task string `json:"task"`
	Type string `json:"type"`
}

// PlanResult is the JSON form of a provisioning plan. Assignments are sorted
// by task ID so identical plans serialize identically (and diff cleanly).
type PlanResult struct {
	Workflow        string    `json:"workflow"`
	Tasks           int       `json:"tasks"`
	Feasible        bool      `json:"feasible"`
	EstimatedCost   float64   `json:"estimated_cost"`
	Objective       float64   `json:"objective"`
	ConstraintProbs []float64 `json:"constraint_probs,omitempty"`
	StatesEvaluated int       `json:"states_evaluated"`
	// WorldsEvaluated / WorldsSaved report the adaptive-precision sampling
	// economy of this job's solve (zero for fixed-precision solves).
	WorldsEvaluated int64        `json:"worlds_evaluated,omitempty"`
	WorldsSaved     int64        `json:"worlds_saved,omitempty"`
	Assignments     []Assignment `json:"assignments"`
}

// PlanResultOf converts an engine plan into its canonical JSON form.
func PlanResultOf(p *deco.Plan) PlanResult {
	asg := p.Assignments()
	ids := make([]string, 0, len(asg))
	for id := range asg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := PlanResult{
		Workflow:        p.Workflow.Name,
		Tasks:           p.Workflow.Len(),
		Feasible:        p.Feasible,
		EstimatedCost:   p.EstimatedCost,
		Objective:       p.Objective,
		ConstraintProbs: p.ConsProb,
		StatesEvaluated: p.StatesEvaluated,
		WorldsEvaluated: p.WorldsEvaluated,
		WorldsSaved:     p.WorldsSaved,
		Assignments:     make([]Assignment, 0, len(ids)),
	}
	for _, id := range ids {
		out.Assignments = append(out.Assignments, Assignment{Task: id, Type: asg[id]})
	}
	return out
}

// JobView is the externally visible state of a job.
type JobView struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Kind is "run" for managed runs, "ensemble" for ensemble-admission
	// jobs, empty for ordinary planning jobs.
	Kind   string `json:"kind,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// RequestID is the end-to-end trace ID (accepted via X-Request-Id or
	// generated at submission).
	RequestID string `json:"request_id,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	// Coalesced reports that the job shared another identical job's
	// in-flight computation instead of solving on its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Remote reports that the result was computed by the job key's owning
	// peer rather than this node.
	Remote bool `json:"remote,omitempty"`
	// Events counts the run's streamed events so far (managed runs only).
	Events    int             `json:"events,omitempty"`
	Workflow  string          `json:"workflow,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// job is the manager's internal record; all fields below mu-guarded state are
// written only under Manager.mu.
type job struct {
	id        string
	req       SubmitRequest
	tenant    string
	requestID string
	// forwarded marks a job received from a peer: it is always solved
	// locally (never re-forwarded) and bypasses tenant admission, which
	// already happened at the ingress node.
	forwarded bool
	// wf is the resolved workflow (nil in program mode).
	wf   *dag.Workflow
	kind string // KindPlan, KindRun or KindEnsemble
	key  string // content-addressed cache key (empty for managed runs)
	// run marks a managed-run job and holds its live event log.
	run *runState

	state     JobState
	cached    bool
	coalesced bool
	remote    bool
	result    json.RawMessage
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel context.CancelFunc
}

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull     = errors.New("service: job queue is full")
	ErrShuttingDown  = errors.New("service: server is shutting down")
	ErrNotFound      = errors.New("service: no such job")
	ErrQuotaExceeded = errors.New("service: tenant admission quota exceeded")
)

// Manager owns the job table, the weighted fair queue, and the worker pool.
// Each worker keeps its own deco.Engine instances (engines are not shared
// across goroutines), reusing them across jobs with the same solver
// configuration. When configured with peers, the manager routes every keyed
// job to its ring owner and coalesces concurrent identical keys through a
// singleflight group.
type Manager struct {
	cfg       Config
	cache     *Cache
	evalCache *deco.EvalCache // shared across all worker engines; nil disables
	metrics   *Metrics
	catHash   string

	ring   *cluster.Ring   // nil on a standalone node
	peers  *cluster.Client // nil on a standalone node
	flight cluster.Group
	quota  *quotas
	// fwdSem bounds workers concurrently parked on a peer forward to
	// Workers-1, so two nodes forwarding to each other can never consume
	// every worker on both sides waiting for the other (distributed worker
	// starvation); a job that cannot get a slot just solves locally.
	fwdSem chan struct{}

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for List and retention pruning
	nextID int
	closed bool
	// tenants holds the tenant names outside Config.TenantWeights and
	// DefaultTenant that key their own state (see overflowTenant).
	tenants map[string]bool

	// runCond (on mu) wakes event streamers when a run appends events or
	// reaches a terminal state, and WaitJob callers when any job finishes.
	runCond *sync.Cond

	queue *fairQueue
	wg    sync.WaitGroup
}

// NewManager starts cfg.Workers workers over a fair queue bounding the total
// backlog at cfg.QueueDepth. evalCache, when non-nil, is shared by every
// worker engine (and through them by managed runs' replan searches); it may
// be nil to disable evaluation caching.
func NewManager(cfg Config, cache *Cache, evalCache *deco.EvalCache, metrics *Metrics) *Manager {
	m := &Manager{
		cfg:       cfg,
		cache:     cache,
		evalCache: evalCache,
		metrics:   metrics,
		catHash:   catalogHash(cloud.DefaultCatalog()),
		quota:     newQuotas(cfg.TenantRate, cfg.TenantBurst),
		jobs:      make(map[string]*job),
		queue:     newFairQueue(cfg.QueueDepth, cfg.TenantWeights),
	}
	if len(cfg.Peers) > 0 {
		m.ring = cluster.NewRing(cfg.Self, cfg.Peers)
		m.peers = cluster.NewClient(cfg.ForwardDialTimeout)
		slots := cfg.Workers - 1
		if slots < 1 {
			slots = 1
		}
		m.fwdSem = make(chan struct{}, slots)
	}
	m.runCond = sync.NewCond(&m.mu)
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// logf writes an operational log line through cfg.Logf; the default (nil)
// discards, keeping embedded and test use quiet.
func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Ring exposes the peer ring (nil on a standalone node); used by tests and
// load harnesses to locate a key's owner.
func (m *Manager) Ring() *cluster.Ring { return m.ring }

// JobKeyFor computes the cluster-wide job key a request would get, without
// submitting it. Used by load harnesses to steer storms at a known owner.
func (m *Manager) JobKeyFor(req SubmitRequest) (string, error) {
	w, _, err := m.normalize(&req)
	if err != nil {
		return "", err
	}
	return m.jobKey(&req, w), nil
}

// catalogHash fingerprints the pricing/performance catalog the engines use,
// so plans cached against one catalog are never served for another.
func catalogHash(cat *cloud.Catalog) string {
	b, err := json.Marshal(cat)
	if err != nil {
		panic(fmt.Sprintf("service: catalog not serializable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// genRequestID mints a random 16-hex-character trace ID.
func genRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// normalize applies server defaults and validates the request, resolving the
// workflow for workflow/DAX modes. It returns the resolved workflow (nil for
// program mode) and the job kind (KindPlan, or KindEnsemble for programs
// carrying an ensemble fact), or a user error.
func (m *Manager) normalize(req *SubmitRequest) (*dag.Workflow, string, error) {
	if req.Seed == 0 {
		req.Seed = m.cfg.DefaultSeed
	}
	if req.Iters == 0 {
		req.Iters = m.cfg.DefaultIters
	}
	if req.Iters < 1 || req.Iters > MaxIters {
		return nil, "", fmt.Errorf("iters must be in [1, %d]", MaxIters)
	}
	if req.SearchBudget == 0 {
		req.SearchBudget = m.cfg.DefaultSearchBudget
	}
	if req.SearchBudget < 1 {
		return nil, "", fmt.Errorf("search_budget must be >= 1")
	}
	if req.Adaptive == nil {
		v := m.cfg.DefaultAdaptive
		req.Adaptive = &v
	}
	req.Tenant = strings.TrimSpace(req.Tenant)
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	if len(req.Tenant) > 64 {
		return nil, "", fmt.Errorf("tenant name longer than 64 bytes")
	}
	sources := 0
	for _, s := range []string{req.Workflow, req.DAX, req.Program} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", fmt.Errorf("exactly one of workflow, dax, program must be set")
	}
	if req.Program != "" {
		if req.Goal != "" || req.Deadline != nil || req.Budget != nil {
			return nil, "", fmt.Errorf("program mode carries its own goal and constraints; goal/deadline/budget must be empty")
		}
		// ParseEnsembleProgram both validates the WLog syntax and detects
		// the ensemble(kind, n) fact that routes the job to the admission
		// solver instead of the scheduling solver.
		if _, isEnsemble, err := deco.ParseEnsembleProgram(req.Program); err != nil {
			return nil, "", err
		} else if isEnsemble {
			return nil, KindEnsemble, nil
		}
		return nil, KindPlan, nil
	}

	// Workflow / DAX mode: resolve the DAG and check constraints.
	var w *dag.Workflow
	var err error
	if req.DAX != "" {
		w, err = dax.Parse(strings.NewReader(req.DAX))
	} else {
		w, err = deco.NamedWorkflow(req.Workflow, req.Seed)
	}
	if err != nil {
		return nil, "", err
	}
	if req.Deadline == nil && req.Budget == nil {
		return nil, "", fmt.Errorf("at least one of deadline, budget is required")
	}
	if req.Deadline != nil && req.Deadline.Value <= 0 {
		return nil, "", fmt.Errorf("deadline value must be positive")
	}
	if req.Budget != nil && req.Budget.Value <= 0 {
		return nil, "", fmt.Errorf("budget value must be positive")
	}
	if req.Deadline != nil && req.Deadline.Percentile > 1 {
		return nil, "", fmt.Errorf("deadline percentile must be at most 1; write 0.95 for 95%%")
	}
	if req.Budget != nil && req.Budget.Percentile > 1 {
		return nil, "", fmt.Errorf("budget percentile must be at most 1; write 0.95 for 95%%")
	}
	switch req.Goal {
	case "":
		if req.Deadline != nil {
			req.Goal = "cost"
		} else {
			req.Goal = "makespan"
		}
	case "cost", "makespan":
	default:
		return nil, "", fmt.Errorf("goal must be \"cost\" or \"makespan\", got %q", req.Goal)
	}
	return w, KindPlan, nil
}

// jobKey computes the content-addressed cache key: a hash over the workflow
// structure (or program text), the catalog, the goal and constraints, and the
// solver configuration. Two requests with the same key provably ask for the
// same plan. Nothing about the device enters it: plans are device-independent
// (the solver's cross-device determinism tests pin this down). The tenant is
// excluded too (see SubmitRequest.Tenant). The same key shards ownership
// across the peer ring, so it must be computed identically on every node.
func (m *Manager) jobKey(req *SubmitRequest, w *dag.Workflow) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|cat=%s|seed=%d|iters=%d|budget=%d|goal=%s|", m.catHash, req.Seed, req.Iters, req.SearchBudget, req.Goal)
	// Adaptive solves preserve plan quality but may land on a different
	// equal-objective plan, so they get their own cache/ring key. The flag is
	// appended only when set, keeping every fixed-precision key unchanged.
	if req.Adaptive != nil && *req.Adaptive {
		io.WriteString(h, "adaptive|")
	}
	if req.Deadline != nil {
		fmt.Fprintf(h, "deadline=%s@%s|", floatKey(req.Deadline.Value), floatKey(req.Deadline.Percentile))
	}
	if req.Budget != nil {
		fmt.Fprintf(h, "budget=%s@%s|", floatKey(req.Budget.Value), floatKey(req.Budget.Percentile))
	}
	if req.Program != "" {
		io.WriteString(h, "program|")
		io.WriteString(h, req.Program)
	} else {
		io.WriteString(h, "workflow|")
		io.WriteString(h, workflowFingerprint(w))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func floatKey(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// workflowFingerprint serializes the structural content of a workflow
// deterministically: tasks sorted by ID with their work and files, then the
// sorted edge list.
func workflowFingerprint(w *dag.Workflow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s;", w.Name)
	ids := make([]string, 0, w.Len())
	for _, t := range w.Tasks {
		ids = append(ids, t.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := w.Task(id)
		fmt.Fprintf(&b, "task=%s|%s|%s", t.ID, t.Executable, floatKey(t.CPUSeconds))
		for _, f := range t.Inputs {
			fmt.Fprintf(&b, "|i:%s:%s", f.Name, floatKey(f.SizeMB))
		}
		for _, f := range t.Outputs {
			fmt.Fprintf(&b, "|o:%s:%s", f.Name, floatKey(f.SizeMB))
		}
		b.WriteByte(';')
	}
	for _, e := range w.Edges() {
		fmt.Fprintf(&b, "edge=%s>%s;", e[0], e[1])
	}
	return b.String()
}

// Submit validates and enqueues a planning request. Cache hits complete
// immediately without touching the queue; a tenant over its admission quota
// is rejected with ErrQuotaExceeded, and a full queue with ErrQueueFull.
func (m *Manager) Submit(req SubmitRequest) (JobView, error) {
	return m.submit(req, false)
}

// SubmitForwarded enqueues a job received from a peer. It is always solved
// locally (never re-forwarded) and bypasses the tenant admission quota,
// which the ingress node already charged.
func (m *Manager) SubmitForwarded(req SubmitRequest) (JobView, error) {
	return m.submit(req, true)
}

func (m *Manager) submit(req SubmitRequest, forwarded bool) (JobView, error) {
	w, kind, err := m.normalize(&req)
	if err != nil {
		return JobView{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if req.RequestID == "" {
		req.RequestID = genRequestID()
	}
	j := &job{req: req, requestID: req.RequestID, forwarded: forwarded, wf: w, kind: kind, key: m.jobKey(&req, w)}
	return m.enqueue(j, "j", func(j *job) bool {
		cached, ok := m.cache.Get(j.key)
		if !ok {
			return false
		}
		j.state = JobDone
		j.cached = true
		j.result = cached
		j.started = j.submitted
		j.finished = j.submitted
		m.metrics.JobsDone.Add(1)
		m.metrics.TenantAdd(j.tenant, "done", 1)
		m.metrics.TenantAdd(j.tenant, "cache_hits", 1)
		return true
	})
}

// enqueue admits a validated submission of either kind: it charges the
// tenant's admission quota unless j was forwarded (the ingress node charged
// it), numbers j under prefix, counts it against its tenant and queues it —
// unless done, called with m.mu held once j is numbered, completes j on the
// spot.
func (m *Manager) enqueue(j *job, prefix string, done func(*job) bool) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.tenant = m.tenantLocked(j.req.Tenant)
	if !j.forwarded && !m.quota.allow(j.tenant, time.Now()) {
		m.metrics.QuotaRejected.Add(1)
		return JobView{}, fmt.Errorf("%w: tenant %q", ErrQuotaExceeded, j.req.Tenant)
	}
	if m.closed {
		return JobView{}, ErrShuttingDown
	}
	m.nextID++
	j.id = fmt.Sprintf("%s-%06d", prefix, m.nextID)
	j.submitted = time.Now()
	m.metrics.TenantAdd(j.tenant, "submitted", 1)
	if j.forwarded {
		m.metrics.PeerJobs.Add(1)
	}
	if done != nil && done(j) {
		m.recordLocked(j)
		return j.viewLocked(), nil
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.state = JobQueued
	if err := m.queue.push(j); err != nil {
		j.cancel()
		return JobView{}, err
	}
	m.metrics.JobsQueued.Add(1)
	m.recordLocked(j)
	m.logf("job %s rid=%s tenant=%s kind=%s queued (forwarded=%v)", j.id, j.requestID, j.tenant, j.kind, j.forwarded)
	return j.viewLocked(), nil
}

// tenantLocked returns the name tenant's state is kept under: tenant
// itself, or overflowTenant once maxOtherTenants other names hold their
// own. Caller holds m.mu.
func (m *Manager) tenantLocked(tenant string) string {
	if _, ok := m.cfg.TenantWeights[tenant]; ok || tenant == DefaultTenant || m.tenants[tenant] {
		return tenant
	}
	if len(m.tenants) >= maxOtherTenants {
		return overflowTenant
	}
	if m.tenants == nil {
		m.tenants = make(map[string]bool)
	}
	m.tenants[tenant] = true
	return tenant
}

// errBadRequest tags validation failures for the HTTP layer.
var errBadRequest = errors.New("service: bad request")

// recordLocked inserts the job into the table and prunes old finished jobs
// beyond the retention limit. Caller holds m.mu.
func (m *Manager) recordLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if m.cfg.MaxJobsRetained <= 0 {
		return
	}
	for len(m.order) > m.cfg.MaxJobsRetained {
		pruned := false
		for i, id := range m.order {
			switch m.jobs[id].state {
			case JobDone, JobFailed, JobCancelled:
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				pruned = true
			}
			if pruned {
				break
			}
		}
		if !pruned {
			break // everything retained is still live
		}
	}
}

// Get returns the current view of a job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.viewLocked(), nil
}

// WaitJob blocks until the job reaches a terminal state and returns its
// final view. When ctx expires first the job is cancelled — for a forwarded
// job this stops work the forwarding node has already given up on.
func (m *Manager) WaitJob(ctx context.Context, id string) (JobView, error) {
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.runCond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()

	m.mu.Lock()
	for {
		j, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return JobView{}, ErrNotFound
		}
		if j.state.terminal() {
			v := j.viewLocked()
			m.mu.Unlock()
			return v, nil
		}
		if err := ctx.Err(); err != nil {
			m.mu.Unlock()
			_, _ = m.Cancel(id)
			return JobView{}, err
		}
		m.runCond.Wait()
	}
}

// List returns all retained jobs in submission order, without results (poll
// the job endpoint for the full document).
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		v := m.jobs[id].viewLocked()
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// Cancel stops a queued or running job. Cancelling a finished job is a
// no-op; the current view is returned either way.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	switch j.state {
	case JobQueued:
		// The worker drops it when it reaches the head of its tenant queue.
		j.state = JobCancelled
		j.finished = time.Now()
		j.cancel()
		m.metrics.JobsQueued.Add(-1)
		m.metrics.JobsCancelled.Add(1)
		m.metrics.TenantAdd(j.tenant, "cancelled", 1)
		m.runCond.Broadcast()
	case JobRunning:
		// The solver aborts between state evaluations; the worker marks the
		// terminal state when ScheduleContext returns.
		j.cancel()
	}
	return j.viewLocked(), nil
}

// Snapshot assembles the /metrics document: the metrics store plus the
// queue and worker-pool gauges only the manager knows.
func (m *Manager) Snapshot() Snapshot {
	s := m.metrics.Snapshot(m.cache, m.evalCache)
	s.QueueDepth = m.queue.Len()
	s.Workers = m.cfg.Workers
	if s.Workers > 0 {
		s.WorkerUtilization = float64(s.WorkersBusy) / float64(s.Workers)
	}
	for tenant, depth := range m.queue.Depths() {
		ts := s.Tenants[tenant] // zero value if the tenant has no counters yet
		ts.QueueDepth = depth
		if s.Tenants == nil {
			s.Tenants = make(map[string]TenantSnapshot)
		}
		s.Tenants[tenant] = ts
	}
	return s
}

// Shutdown stops accepting submissions, drains every accepted job (queued
// and running, including jobs forwarded in by peers), and waits for the
// workers to exit. If ctx expires first, the remaining jobs are cancelled
// and Shutdown waits for them to abort. Peers forwarding new work during the
// drain are refused with ErrShuttingDown and compute locally instead — a
// forwarded job is either finished here or handed back, never dropped.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyClosed := m.closed
	m.closed = true
	m.mu.Unlock()
	if !alreadyClosed {
		m.queue.close()
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.cancel != nil {
				j.cancel()
			}
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker drains the fair queue, keeping one engine per solver configuration.
// Engines are not safe for concurrent use, so they are strictly
// worker-local; the map lets a worker alternate between configurations
// without rebuilding calibrated metadata every job.
func (m *Manager) worker() {
	defer m.wg.Done()
	type engineCfg struct {
		seed     int64
		iters    int
		budget   int
		adaptive bool
		scope    string
	}
	engines := make(map[engineCfg]*deco.Engine)
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.mu.Lock()
		if j.state != JobQueued { // cancelled while queued
			m.mu.Unlock()
			continue
		}
		j.state = JobRunning
		j.started = time.Now()
		m.metrics.JobsQueued.Add(-1)
		m.metrics.JobsRunning.Add(1)
		m.mu.Unlock()
		m.metrics.WorkersBusy.Add(1)

		// The scope labels the engine's eval-cache traffic by job kind, so
		// /metrics can report e.g. how well ensemble members share
		// evaluations; the cache itself stays one shared table.
		cfg := engineCfg{seed: j.req.Seed, iters: j.req.Iters, budget: j.req.SearchBudget, scope: j.kind}
		if j.req.Adaptive != nil {
			cfg.adaptive = *j.req.Adaptive
		}
		eng, ok := engines[cfg]
		var err error
		if !ok {
			opts := []deco.Option{deco.WithSeed(cfg.seed), deco.WithIters(cfg.iters),
				deco.WithSearchBudget(cfg.budget), deco.WithAdaptive(cfg.adaptive)}
			if m.evalCache != nil {
				opts = append(opts, deco.WithEvalCache(m.evalCache), deco.WithEvalCacheScope(cfg.scope))
			}
			eng, err = deco.NewEngine(opts...)
			if err == nil {
				if len(engines) >= 8 { // bound worker-local engine memory
					for k := range engines {
						delete(engines, k)
						break
					}
				}
				engines[cfg] = eng
			}
		}

		var out solveOut
		if err == nil {
			if j.run != nil {
				out.doc, err = m.runManaged(j, eng)
			} else {
				out, err = m.solveKeyed(j, eng)
			}
		}
		m.metrics.WorkersBusy.Add(-1)

		m.mu.Lock()
		j.finished = time.Now()
		m.metrics.JobsRunning.Add(-1)
		switch {
		case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			j.state = JobCancelled
			j.errMsg = err.Error()
			m.metrics.JobsCancelled.Add(1)
			m.metrics.TenantAdd(j.tenant, "cancelled", 1)
		case err != nil:
			j.state = JobFailed
			j.errMsg = err.Error()
			m.metrics.JobsFailed.Add(1)
			m.metrics.TenantAdd(j.tenant, "failed", 1)
			m.logf("job %s rid=%s tenant=%s failed: %v", j.id, j.requestID, j.tenant, err)
		default:
			j.state = JobDone
			j.result = out.doc
			j.cached = j.cached || out.cached
			j.coalesced = out.coalesced
			j.remote = out.remote
			m.metrics.JobsDone.Add(1)
			m.metrics.TenantAdd(j.tenant, "done", 1)
			if out.cached {
				m.metrics.TenantAdd(j.tenant, "cache_hits", 1)
			}
			if j.run == nil {
				m.metrics.ObserveSolve(j.tenant, j.finished.Sub(j.started).Seconds())
				// Only locally computed results enter the plan cache: the
				// owner is the cache authority for its shard, so remote docs
				// stay remote and coalesced followers reuse the leader's Put.
				if !out.remote && !out.coalesced && !out.cached {
					m.cache.Put(j.key, out.doc)
				}
			}
		}
		j.cancel()
		m.runCond.Broadcast()
		m.mu.Unlock()
	}
}

// solveOut is the outcome of a keyed (non-run) job's solve path.
type solveOut struct {
	doc       json.RawMessage
	cached    bool // answered from a plan cache (local recheck or owner's)
	coalesced bool // shared another job's in-flight computation
	remote    bool // computed by the owning peer
}

// solveKeyed answers a keyed job: local plan-cache recheck first (the job
// may have queued behind the identical job that just finished), then the
// singleflight group, inside which the job either forwards to its ring owner
// or solves locally.
func (m *Manager) solveKeyed(j *job, eng *deco.Engine) (solveOut, error) {
	if doc, ok := m.cache.Recheck(j.key); ok {
		return solveOut{doc: doc, cached: true}, nil
	}
	for {
		v, err, shared := m.flight.Do(j.key, func() (any, error) {
			return m.solveRouted(j, eng)
		})
		if shared && err != nil && errors.Is(err, context.Canceled) && j.ctx.Err() == nil {
			// The flight leader was cancelled, not us: retry (possibly
			// becoming the new leader).
			continue
		}
		if err != nil {
			return solveOut{}, err
		}
		out := v.(solveOut)
		if shared {
			out.coalesced = true
			m.metrics.CoalescedTotal.Add(1)
		}
		return out, nil
	}
}

// solveRouted runs inside the singleflight: it forwards the job to its ring
// owner when that is another node, with a hedged fallback to local
// computation when the owner is unreachable, refuses the job (draining, full
// queue), errors, or exceeds the hedge delay.
func (m *Manager) solveRouted(j *job, eng *deco.Engine) (solveOut, error) {
	owner := ""
	if m.ring != nil && !j.forwarded {
		if o := m.ring.Owner(j.key); o != m.ring.Self() {
			owner = o
		}
	}
	if owner == "" {
		return m.solveLocal(j, eng)
	}

	// Take a forwarding slot; if every slot is parked on a peer already,
	// solving locally is both deadlock-free and no slower than queueing.
	select {
	case m.fwdSem <- struct{}{}:
		defer func() { <-m.fwdSem }()
	default:
		return m.solveLocal(j, eng)
	}

	m.metrics.ForwardsTotal.Add(1)
	body, err := json.Marshal(j.req)
	if err != nil {
		return solveOut{}, err
	}
	fctx, fcancel := context.WithCancel(j.ctx)
	defer fcancel()
	type fwdReply struct {
		rep *cluster.SolveReply
		err error
	}
	ch := make(chan fwdReply, 1)
	go func() {
		rep, err := m.peers.Solve(fctx, owner, body, j.requestID)
		ch <- fwdReply{rep, err}
	}()

	hedge := time.NewTimer(m.cfg.ForwardHedge)
	defer hedge.Stop()
	select {
	case r := <-ch:
		if r.err == nil {
			if r.rep.Cached {
				m.metrics.CrossShardHits.Add(1)
			}
			return solveOut{doc: r.rep.Doc, cached: r.rep.Cached, remote: true}, nil
		}
		m.metrics.ForwardFailures.Add(1)
		m.logf("job %s rid=%s: forward to owner %s failed (%v); solving locally", j.id, j.requestID, owner, r.err)
	case <-hedge.C:
		// The owner is reachable but slow (or hung): abandon the forward and
		// compute locally. fcancel (deferred) tells the owner to stop.
		m.metrics.ForwardHedged.Add(1)
		m.logf("job %s rid=%s: owner %s exceeded hedge %v; solving locally", j.id, j.requestID, owner, m.cfg.ForwardHedge)
	case <-j.ctx.Done():
		return solveOut{}, j.ctx.Err()
	}
	return m.solveLocal(j, eng)
}

// solveLocal runs the job on this node's engine.
func (m *Manager) solveLocal(j *job, eng *deco.Engine) (solveOut, error) {
	m.metrics.SolvesTotal.Add(1)
	var doc json.RawMessage
	var err error
	if j.kind == KindEnsemble {
		var res *deco.EnsembleResult
		if res, err = eng.RunEnsembleProgram(j.ctx, j.req.Program); err == nil {
			doc, err = json.Marshal(res)
		}
	} else {
		var plan *deco.Plan
		if plan, err = solve(j.ctx, eng, j); err == nil {
			m.metrics.WorldsEvaluatedTotal.Add(plan.WorldsEvaluated)
			m.metrics.WorldsSavedTotal.Add(plan.WorldsSaved)
			doc, err = json.Marshal(PlanResultOf(plan))
		}
	}
	if err != nil {
		return solveOut{}, err
	}
	return solveOut{doc: doc}, nil
}

// solve dispatches a job to the engine's context-aware entry points.
func solve(ctx context.Context, eng *deco.Engine, j *job) (*deco.Plan, error) {
	if j.req.Program != "" {
		return eng.RunProgramContext(ctx, j.req.Program, nil)
	}
	var d deco.Deadline
	var b deco.Budget
	if j.req.Deadline != nil {
		d = deco.Deadline{Percentile: j.req.Deadline.Percentile, Seconds: j.req.Deadline.Value}
	}
	if j.req.Budget != nil {
		b = deco.Budget{Percentile: j.req.Budget.Percentile, Dollars: j.req.Budget.Value}
	}
	return eng.ScheduleConstrainedContext(ctx, j.wf, j.req.Goal == "cost", d, b)
}

// viewLocked snapshots the job; caller holds m.mu (or the job is still
// private to the caller).
func (j *job) viewLocked() JobView {
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Tenant:    j.req.Tenant,
		RequestID: j.requestID,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Remote:    j.remote,
		Submitted: j.submitted,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if j.kind != "" && j.kind != KindPlan {
		v.Kind = j.kind
	}
	if j.run != nil {
		v.Events = len(j.run.events)
	}
	if j.wf != nil {
		v.Workflow = j.wf.Name
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
