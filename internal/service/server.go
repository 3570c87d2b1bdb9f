// Package service runs Deco as a long-lived provisioning-plan service: an
// HTTP/JSON API over an asynchronous job manager. Clients POST a planning
// request (a named synthetic workflow, an inline DAX document, or a raw WLog
// program, plus probabilistic deadline/budget constraints) and get back a job
// ID; a bounded queue feeds a pool of workers, each owning its own
// deco.Engine; finished plans land in a content-addressed LRU cache so
// resubmissions of the same problem are answered without re-searching.
//
// This is the service face the paper implies for Deco-as-WMS-backend (§6.4's
// WMS integration) and the natural step toward the Workflow-as-a-Service
// hosting model: the engine stops being a library call and becomes shared
// infrastructure with admission control (queue depth), cancellation, and
// operational visibility (/metrics, /healthz).
package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"deco"
)

// Config sizes the service.
type Config struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string
	// Workers is the solver pool size (default 2).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64);
	// submissions beyond it are rejected with 429.
	QueueDepth int

	// Self is this node's advertised base URL (e.g. "http://host0:8080") and
	// Peers the full static membership of the cluster, self included or not
	// (it is added). With no peers the node runs standalone: no ring, no
	// forwarding. Every node must list the same peer spellings.
	Self  string
	Peers []string
	// ForwardHedge is how long a worker waits on the owning peer before
	// abandoning the forward and computing locally (default 2s). It only
	// fires when the owner is reachable but slow; an unreachable owner fails
	// the forward immediately.
	ForwardHedge time.Duration
	// ForwardDialTimeout bounds connection establishment to a peer (default
	// 2s) so dead peers fail fast into local computation.
	ForwardDialTimeout time.Duration

	// TenantRate is the per-tenant admission quota in submissions per
	// second, enforced by a token bucket per tenant; 0 disables admission
	// control. TenantBurst is the bucket depth (default max(1, TenantRate)).
	TenantRate  float64
	TenantBurst float64
	// TenantWeights maps tenant names to fair-scheduling weights; absent
	// tenants weigh 1. A weight-2 tenant gets twice the dequeues of a
	// weight-1 tenant while both are backlogged.
	TenantWeights map[string]float64

	// HTTP hardening. MaxRequestBytes caps a submission body (default 1
	// MiB) — peer-to-peer forwarding makes unbounded bodies a cluster-wide
	// hazard, since one oversized program would be copied to its owner.
	// ReadTimeout/WriteTimeout/MaxHeaderBytes harden the listener; the
	// streaming endpoints (run events, peer solve) extend their own write
	// deadlines past WriteTimeout.
	MaxRequestBytes int64
	ReadTimeout     time.Duration
	WriteTimeout    time.Duration
	MaxHeaderBytes  int

	// Logf, when non-nil, receives operational log lines (submissions,
	// forwards, failures) with request IDs. nil discards them.
	Logf func(format string, args ...any)
	// CacheCapacity is the plan cache size in entries (default 256;
	// negative disables caching).
	CacheCapacity int
	// MaxJobsRetained bounds the job table; the oldest finished jobs are
	// dropped past it (default 1024).
	MaxJobsRetained int
	// EvalCacheCapacity is the shared state-evaluation cache size in entries
	// (default deco.DefaultEvalCacheCapacity; negative disables it). Unlike
	// the plan cache, which memoizes whole solved jobs, the evaluation cache
	// memoizes individual Monte-Carlo state evaluations and is shared by every
	// worker engine and every managed run's replan searches.
	EvalCacheCapacity int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by default;
	// the profiles expose internals, so opt in per deployment).
	EnablePprof bool

	// Solver defaults applied to requests that leave them zero.
	DefaultSeed         int64
	DefaultIters        int
	DefaultSearchBudget int
	// DefaultAdaptive enables adaptive-precision Monte-Carlo inference for
	// requests that do not set "adaptive" themselves (decod -adaptive).
	DefaultAdaptive bool
	// DefaultRisk is the replan threshold applied to managed runs that leave
	// risk zero (default 0.1).
	DefaultRisk float64
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 256
	}
	if c.MaxJobsRetained == 0 {
		c.MaxJobsRetained = 1024
	}
	if c.ForwardHedge <= 0 {
		c.ForwardHedge = 2 * time.Second
	}
	if c.ForwardDialTimeout <= 0 {
		c.ForwardDialTimeout = 2 * time.Second
	}
	if c.TenantBurst <= 0 && c.TenantRate > 0 {
		c.TenantBurst = c.TenantRate
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 60 * time.Second
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 64 << 10
	}
	if c.EvalCacheCapacity == 0 {
		c.EvalCacheCapacity = deco.DefaultEvalCacheCapacity
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 1
	}
	if c.DefaultIters <= 0 {
		c.DefaultIters = 100
	}
	if c.DefaultSearchBudget <= 0 {
		c.DefaultSearchBudget = 4000
	}
	if c.DefaultRisk <= 0 {
		c.DefaultRisk = 0.1
	}
}

// Server ties the job manager to an HTTP listener.
type Server struct {
	cfg       Config
	mgr       *Manager
	cache     *Cache
	evalCache *deco.EvalCache
	metrics   *Metrics
	httpSrv   *http.Server
}

// New builds a server (and starts its worker pool) without binding a socket;
// use Handler with httptest for in-process use, or ListenAndServe.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	cache := NewCache(cfg.CacheCapacity)
	var evalCache *deco.EvalCache
	if cfg.EvalCacheCapacity > 0 {
		evalCache = deco.NewEvalCache(cfg.EvalCacheCapacity)
	}
	metrics := NewMetrics()
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		evalCache: evalCache,
		metrics:   metrics,
		mgr:       NewManager(cfg, cache, evalCache, metrics),
	}
	// Listener hardening: header and body read bounds, a write deadline
	// (long-lived streams extend their own), and a header-size cap. These
	// matter doubly in a cluster, where one node's slowloris becomes every
	// forwarding peer's stuck worker.
	s.httpSrv = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
	return s
}

// Manager exposes the job manager (used by tests and embedded callers).
func (s *Server) Manager() *Manager { return s.mgr }

// Metrics exposes the metrics store.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	err := s.httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops accepting HTTP connections and submissions, then drains
// every accepted job. The context bounds the drain: when it expires,
// in-flight solves are cancelled and awaited.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.httpSrv.Shutdown(ctx)
	drainErr := s.mgr.Shutdown(ctx)
	if httpErr != nil {
		return fmt.Errorf("service: http shutdown: %w", httpErr)
	}
	return drainErr
}
