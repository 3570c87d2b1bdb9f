package service

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"deco"
)

// Metrics aggregates the service's operational counters and the solve-latency
// distribution. Counters are lock-free; latency reservoirs are fixed-size
// uniform samples (Vitter's algorithm R) so quantiles stay O(1) memory no
// matter how many jobs the daemon has served.
type Metrics struct {
	JobsQueued    atomic.Int64 // gauge: submitted, not yet started
	JobsRunning   atomic.Int64 // gauge: currently solving
	JobsDone      atomic.Int64 // cumulative successes (including cache hits)
	JobsFailed    atomic.Int64 // cumulative failures
	JobsCancelled atomic.Int64 // cumulative cancellations

	RunsDone     atomic.Int64 // cumulative managed runs completed
	ReplansTotal atomic.Int64 // cumulative replans across all managed runs

	// Spot-market execution counters across all managed runs: instances
	// reclaimed by the market, and the monitor's forced recovery replans
	// answering them. SpotSavingsMicroUSD accumulates the realized
	// spot-vs-on-demand billing delta in integer micro-dollars (atomics
	// carry no floats; a micro-dollar is far below billing resolution), and
	// can go negative when revocation rework outweighs the discount.
	RevocationsTotal    atomic.Int64
	RecoveriesTotal     atomic.Int64
	SpotSavingsMicroUSD atomic.Int64

	// WorkersBusy is the gauge of workers currently executing a job (solving
	// locally, forwarding, or driving a managed run).
	WorkersBusy atomic.Int64

	// Cluster counters. SolvesTotal counts local engine solves — the work
	// that coalescing, caching and forwarding all exist to avoid, so the
	// cluster-wide sum after an identical-key storm should be exactly 1.
	SolvesTotal     atomic.Int64
	CoalescedTotal  atomic.Int64 // jobs that shared another job's in-flight computation
	ForwardsTotal   atomic.Int64 // jobs routed to their owning peer
	ForwardFailures atomic.Int64 // forwards that fell back to local computation on error
	ForwardHedged   atomic.Int64 // forwards abandoned for local computation after the hedge delay
	CrossShardHits  atomic.Int64 // forwarded jobs answered from the owner's plan cache
	PeerJobs        atomic.Int64 // jobs received from peers via the solve endpoint
	QuotaRejected   atomic.Int64 // submissions refused by per-tenant admission

	// Adaptive-precision sampling economy across all local solves:
	// Monte-Carlo worlds actually evaluated on the adaptive path, and worlds
	// avoided relative to the fixed per-state budget. Both stay zero while no
	// adaptive solve has run.
	WorldsEvaluatedTotal atomic.Int64
	WorldsSavedTotal     atomic.Int64

	mu     sync.Mutex
	solve  reservoir
	rng    *rand.Rand
	tmu    sync.Mutex
	tenant map[string]*tenantCounters
	trng   *rand.Rand
}

// reservoir is a fixed-size uniform sample of a latency stream; guarded by
// the owning mutex.
type reservoir struct {
	cap   int
	items []float64
	seen  int64
}

func (r *reservoir) observe(v float64, rng *rand.Rand) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	if j := rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = v
	}
}

// quantiles returns the p50/p95/p99 of the sample in milliseconds.
func (r *reservoir) quantiles() (p50, p95, p99 float64) {
	if len(r.items) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), r.items...)
	sort.Float64s(s)
	return 1000 * quantile(s, 0.50), 1000 * quantile(s, 0.95), 1000 * quantile(s, 0.99)
}

// tenantCounters is one tenant's share of the traffic; guarded by Metrics.tmu.
type tenantCounters struct {
	submitted int64
	done      int64
	failed    int64
	cancelled int64
	cacheHits int64
	solve     reservoir
}

// reservoirCap bounds the global latency sample; 512 points give quantile
// estimates well within the noise of Monte-Carlo solve times. Per-tenant
// reservoirs are smaller because there may be many tenants.
const (
	reservoirCap       = 512
	tenantReservoirCap = 128
)

// NewMetrics returns an empty metrics store.
func NewMetrics() *Metrics {
	return &Metrics{
		solve:  reservoir{cap: reservoirCap},
		rng:    rand.New(rand.NewSource(1)),
		tenant: make(map[string]*tenantCounters),
		trng:   rand.New(rand.NewSource(2)),
	}
}

// ObserveSolve records one solve latency in seconds, attributed to tenant.
func (m *Metrics) ObserveSolve(tenant string, seconds float64) {
	m.mu.Lock()
	m.solve.observe(seconds, m.rng)
	m.mu.Unlock()
	if tenant != "" {
		m.tmu.Lock()
		m.tenantLocked(tenant).solve.observe(seconds, m.trng)
		m.tmu.Unlock()
	}
}

// tenantLocked returns tenant's counters, creating them; caller holds tmu.
func (m *Metrics) tenantLocked(name string) *tenantCounters {
	t, ok := m.tenant[name]
	if !ok {
		t = &tenantCounters{solve: reservoir{cap: tenantReservoirCap}}
		m.tenant[name] = t
	}
	return t
}

// TenantAdd bumps one of a tenant's counters by name:
// "submitted", "done", "failed", "cancelled", "cache_hits".
func (m *Metrics) TenantAdd(tenant, counter string, delta int64) {
	if tenant == "" {
		return
	}
	m.tmu.Lock()
	defer m.tmu.Unlock()
	t := m.tenantLocked(tenant)
	switch counter {
	case "submitted":
		t.submitted += delta
	case "done":
		t.done += delta
	case "failed":
		t.failed += delta
	case "cancelled":
		t.cancelled += delta
	case "cache_hits":
		t.cacheHits += delta
	}
}

// ScopeStats is one job kind's share of the eval-cache traffic.
type ScopeStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// TenantSnapshot is one tenant's row in /metrics: admission, completion and
// cache-hit counters plus queue depth and a solve-latency distribution.
type TenantSnapshot struct {
	Submitted  int64   `json:"submitted"`
	Done       int64   `json:"done"`
	Failed     int64   `json:"failed,omitempty"`
	Cancelled  int64   `json:"cancelled,omitempty"`
	CacheHits  int64   `json:"cache_hits"`
	QueueDepth int     `json:"queue_depth"`
	Samples    int64   `json:"solve_samples"`
	P50Ms      float64 `json:"solve_latency_p50_ms"`
	P95Ms      float64 `json:"solve_latency_p95_ms"`
	P99Ms      float64 `json:"solve_latency_p99_ms"`
}

// Snapshot is the JSON document served by /metrics.
type Snapshot struct {
	JobsQueued    int64 `json:"jobs_queued"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`

	RunsDone     int64 `json:"runs_done"`
	ReplansTotal int64 `json:"replans_total"`

	// Spot-market execution counters (zero until a managed run executes spot
	// capacity). The savings total is the realized spot-vs-on-demand billing
	// delta in USD and can go negative under heavy revocation rework.
	RevocationsTotal    int64   `json:"revocations_total"`
	RecoveriesTotal     int64   `json:"recoveries_total"`
	SpotSavingsUSDTotal float64 `json:"spot_savings_usd_total"`

	// Queue and worker-pool gauges: QueueDepth counts jobs sitting in the
	// fair queue (including cancelled-but-undequeued ones), and
	// WorkerUtilization is WorkersBusy/Workers.
	QueueDepth        int     `json:"queue_depth"`
	Workers           int     `json:"workers"`
	WorkersBusy       int64   `json:"workers_busy"`
	WorkerUtilization float64 `json:"worker_utilization"`

	// Cluster counters (all zero on a standalone node).
	SolvesTotal     int64 `json:"solves_total"`
	CoalescedTotal  int64 `json:"coalesced_total"`
	ForwardsTotal   int64 `json:"forwards_total"`
	ForwardFailures int64 `json:"forward_failures"`
	ForwardHedged   int64 `json:"forward_hedged"`
	CrossShardHits  int64 `json:"cross_shard_hits"`
	PeerJobs        int64 `json:"peer_jobs"`
	QuotaRejected   int64 `json:"quota_rejected"`

	// Adaptive-precision sampling counters (zero unless adaptive solves ran).
	WorldsEvaluatedTotal int64 `json:"worlds_evaluated_total"`
	WorldsSavedTotal     int64 `json:"worlds_saved_total"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`

	// Evaluation-cache statistics: the shared Monte-Carlo state-evaluation
	// transposition table (distinct from the whole-plan cache above).
	EvalCacheHits   int64 `json:"eval_cache_hits"`
	EvalCacheMisses int64 `json:"eval_cache_misses"`
	EvalCacheSize   int   `json:"eval_cache_size"`
	// EvalCacheScopes breaks the eval-cache traffic down by job kind
	// ("plan", "run", "ensemble"), so e.g. the cross-member sharing of
	// ensemble admission jobs is observable separately from plan jobs.
	EvalCacheScopes map[string]ScopeStats `json:"eval_cache_scopes,omitempty"`

	SolveSamples int64   `json:"solve_samples"`
	SolveP50Ms   float64 `json:"solve_latency_p50_ms"`
	SolveP95Ms   float64 `json:"solve_latency_p95_ms"`
	SolveP99Ms   float64 `json:"solve_latency_p99_ms"`

	// Tenants is the per-tenant breakdown of the traffic above.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`
}

// Snapshot captures the current counters plus the statistics of the given
// plan cache and evaluation cache (either may be nil). Queue and worker
// gauges are filled by (*Manager).Snapshot, which knows the pool.
func (m *Metrics) Snapshot(c *Cache, ec *deco.EvalCache) Snapshot {
	s := Snapshot{
		JobsQueued:          m.JobsQueued.Load(),
		JobsRunning:         m.JobsRunning.Load(),
		JobsDone:            m.JobsDone.Load(),
		JobsFailed:          m.JobsFailed.Load(),
		JobsCancelled:       m.JobsCancelled.Load(),
		RunsDone:            m.RunsDone.Load(),
		ReplansTotal:        m.ReplansTotal.Load(),
		RevocationsTotal:    m.RevocationsTotal.Load(),
		RecoveriesTotal:     m.RecoveriesTotal.Load(),
		SpotSavingsUSDTotal: float64(m.SpotSavingsMicroUSD.Load()) / 1e6,
		WorkersBusy:         m.WorkersBusy.Load(),
		SolvesTotal:         m.SolvesTotal.Load(),
		CoalescedTotal:      m.CoalescedTotal.Load(),
		ForwardsTotal:       m.ForwardsTotal.Load(),
		ForwardFailures:     m.ForwardFailures.Load(),
		ForwardHedged:       m.ForwardHedged.Load(),
		CrossShardHits:      m.CrossShardHits.Load(),
		PeerJobs:            m.PeerJobs.Load(),
		QuotaRejected:       m.QuotaRejected.Load(),

		WorldsEvaluatedTotal: m.WorldsEvaluatedTotal.Load(),
		WorldsSavedTotal:     m.WorldsSavedTotal.Load(),
	}
	if c != nil {
		s.CacheHits, s.CacheMisses = c.Stats()
		s.CacheSize = c.Len()
	}
	if ec != nil {
		s.EvalCacheHits = ec.Hits()
		s.EvalCacheMisses = ec.Misses()
		s.EvalCacheSize = ec.Len()
		for _, scope := range ec.Scopes() {
			h, miss := ec.ScopeStats(scope)
			if s.EvalCacheScopes == nil {
				s.EvalCacheScopes = make(map[string]ScopeStats)
			}
			s.EvalCacheScopes[scope] = ScopeStats{Hits: h, Misses: miss}
		}
	}
	m.mu.Lock()
	s.SolveSamples = m.solve.seen
	s.SolveP50Ms, s.SolveP95Ms, s.SolveP99Ms = m.solve.quantiles()
	m.mu.Unlock()

	m.tmu.Lock()
	if len(m.tenant) > 0 {
		s.Tenants = make(map[string]TenantSnapshot, len(m.tenant))
		for name, t := range m.tenant {
			ts := TenantSnapshot{
				Submitted: t.submitted, Done: t.done, Failed: t.failed,
				Cancelled: t.cancelled, CacheHits: t.cacheHits, Samples: t.solve.seen,
			}
			ts.P50Ms, ts.P95Ms, ts.P99Ms = t.solve.quantiles()
			s.Tenants[name] = ts
		}
	}
	m.tmu.Unlock()
	return s
}

// quantile reads the p-th quantile from an ascending sample: the nearest-rank
// definition, rank ceil(p*n) (1-based). Truncating p*n instead of taking the
// ceiling reads one element too high whenever p*n is an integer — e.g. the
// p50 of [1,2,3,4] came back 3 rather than 2.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
