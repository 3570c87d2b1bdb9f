// Command decod runs Deco as a provisioning-plan service: an HTTP/JSON API
// over an asynchronous job manager with a worker pool and a content-addressed
// plan cache. See the "Running Deco as a service" section of the README for
// the endpoint reference and curl examples.
//
// Usage:
//
//	decod -addr :8080 -workers 4 -queue 128 -cache 512
//
// Several decod processes form a sharded cluster when each is given the full
// membership via -peers and its own URL via -self; see the "Running a decod
// cluster" section of the README:
//
//	decod -addr :8080 -self http://10.0.0.1:8080 \
//	      -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, accepted
// jobs drain, and after -drain-timeout any still-running solves are
// cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deco/internal/service"
)

// parseWeights parses "alice=3,bob=1" into a tenant-weight map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("malformed tenant weight %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant %q: weight must be a positive number, got %q", name, val)
		}
		out[strings.TrimSpace(name)] = w
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "solver worker pool size")
	queue := flag.Int("queue", 64, "bounded queue depth; submissions beyond it get HTTP 429")
	cache := flag.Int("cache", 256, "plan cache capacity in entries (0 disables)")
	evalCache := flag.Int("evalcache", 0, "state-evaluation cache capacity in entries (0 = default, negative disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	iters := flag.Int("iters", 100, "default Monte-Carlo iterations per state evaluation")
	budget := flag.Int("budget", 4000, "default solver state-evaluation budget")
	threads := flag.Int("threads", 0, "default Monte-Carlo threads per state evaluation (0 = unbounded, 1 = state-level parallelism only)")
	adaptive := flag.Bool("adaptive", false, "default to adaptive-precision Monte-Carlo inference (a state stops once it is proven infeasible; exact verdicts, fewer worlds)")
	seed := flag.Int64("seed", 1, "default rng seed")
	risk := flag.Float64("risk", 0.1, "default replan risk threshold for managed runs")
	drain := flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain bound")
	self := flag.String("self", "", "this node's URL as peers reach it (required with -peers)")
	peers := flag.String("peers", "", "comma-separated URLs of every cluster node including this one")
	hedge := flag.Duration("forward-hedge", 0, "wait this long for a forwarded job before also solving locally (0 = default 2s)")
	tenantRate := flag.Float64("tenant-quota", 0, "per-tenant admission quota in jobs/second (0 = unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant admission burst size (0 = max(1, quota))")
	tenantWeights := flag.String("tenant-weights", "", `per-tenant scheduling weights, e.g. "gold=3,free=1" (absent tenants get 1)`)
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "decod:", err)
		os.Exit(2)
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			fmt.Fprintln(os.Stderr, "decod: -peers requires -self (this node's URL as peers reach it)")
			os.Exit(2)
		}
	}

	srv := service.New(service.Config{
		Addr:                *addr,
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheCapacity:       *cache,
		EvalCacheCapacity:   *evalCache,
		EnablePprof:         *pprofOn,
		DefaultIters:        *iters,
		DefaultSearchBudget: *budget,
		DefaultThreads:      *threads,
		DefaultAdaptive:     *adaptive,
		DefaultSeed:         *seed,
		DefaultRisk:         *risk,
		Self:                *self,
		Peers:               peerList,
		ForwardHedge:        *hedge,
		TenantRate:          *tenantRate,
		TenantBurst:         *tenantBurst,
		TenantWeights:       weights,
		Logf:                log.Printf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("decod: listening on %s (%d workers, queue %d, cache %d)", *addr, *workers, *queue, *cache)
	if len(peerList) > 0 {
		log.Printf("decod: cluster member %s of %d peers", *self, len(peerList))
	}

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "decod:", err)
			os.Exit(1)
		}
		return
	case <-ctx.Done():
	}

	log.Printf("decod: shutting down, draining jobs (bound %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "decod: shutdown:", err)
		os.Exit(1)
	}
	log.Printf("decod: drained cleanly")
}
