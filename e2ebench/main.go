// Command e2ebench is the repository benchmark: it drives Deco through its
// public entry points — deco.Engine for the library workloads, decod over
// loopback HTTP for managed runs — on a fixed, seeded request list, checks
// every output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
//
//	go build -o e2ebench . && ./e2ebench --workload plan-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a gain
// claimed on the tuning seeds must also hold on it.
const heldOutSeed = 20261017

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	requests int // fixed request count (from --seconds unless a test sets it)
	callers  int // closed-loop callers (decod workers and clients)
	setups   int // set-up repetitions (setupReps unless a test sets it)
}

// quality holds the per-request means that are exact functions of code and
// seed.
type quality struct {
	planned                             int
	feasible                            int
	planCost, realizedCost, deadlineHit float64
}

// report is one run's raw outcome.
type report struct {
	requests   []request
	latencies  []float64 // seconds, per request; settle drops failed ones
	wall       float64   // seconds of the timed region
	allocMB    float64   // MB allocated in the timed region
	setups     []float64 // seconds per set-up repetition
	quality    quality
	layers     map[string]float64
	attempted  int
	failed     int
	failures   []string
	planDigest string
}

// settle counts attempts and failures; a failed request also loses its
// latency sample.
func (r *report) settle(errs []error) {
	r.attempted = len(errs)
	for _, err := range errs {
		if err != nil {
			r.failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, err.Error())
			}
		}
	}
	kept := r.latencies[:0]
	for i, l := range r.latencies {
		if errs[i] == nil {
			kept = append(kept, l)
		}
	}
	r.latencies = kept
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit; a traced run reports
// all of them, with 0 for layers its workload does not run.
var perLayer = []struct{ name, unit string }{
	{"wlog.parse_s", "s"}, {"dax.read_s", "s"}, {"calib.run_s", "s"}, {"estimate.table_s", "s"},
	{"probir.compile_s", "s"}, {"opt.compile_s", "s"}, {"opt.search_s", "s"}, {"opt.search_self_s", "s"},
	{"opt.states", "count"}, {"opt.states_per_s", "1/s"}, {"opt.delta_share", "share"},
	{"opt.delta_fallbacks", "count"}, {"opt.cone_plan_hits", "count"}, {"opt.pack_s", "s"},
	{"device.busy_s", "s"}, {"device.busy_share", "share"}, {"device.calls", "count"},
	{"device.blocks", "count"}, {"device.block_threads", "count"}, {"sample.worlds_run", "count"},
	{"sample.worlds_saved_share", "share"}, {"sample.worlds_reordered", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
	{"service.queue_wait_s", "s"}, {"service.worker_s", "s"}, {"service.overhead_s", "s"},
	{"service.events", "count"}, {"opt.evalcache_hit_share", "share"},
	{"runtime.on_event_s", "s"}, {"runtime.revise_s", "s"}, {"runtime.replans", "count"},
	{"runtime.replan_s", "s"}, {"runtime.risk_worlds", "count"}, {"runtime.recoveries", "count"},
	{"sim.self_s", "s"}, {"sim.events", "count"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "plan-cold | wlog-spot-adaptive | decod-managed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the request list is a function of it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measurement window; sizes the fixed request list")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	if err := cfg.resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, _, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func (c *config) resolve() error {
	wl, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	if c.requests <= 0 {
		c.requests = max(minRequests, int(math.Round(float64(c.seconds)*wl.rate)))
	}
	c.callers = wl.callers
	if c.setups < 1 {
		c.setups = setupReps
	}
	return nil
}

// run executes the workload, prints the stamp and workload lines to out, and
// returns the result object and the raw report behind it.
func run(ctx context.Context, cfg config, out io.Writer) (*result, *report, error) {
	fmt.Fprintf(out, "stamp %s\n", mustJSON(stamp()))
	var rep *report
	var err error
	if cfg.workload == wlManaged {
		rep, err = runManaged(ctx, cfg)
	} else {
		rep, err = runLibrary(ctx, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "workload %s\n", mustJSON(map[string]any{
		"name": cfg.workload, "seed": cfg.seed, "held_out_seed": heldOutSeed, "trace": cfg.trace,
		"requests": len(rep.requests), "callers": cfg.callers, "loop": "closed",
		"request_digest": requestDigest(rep.requests), "plan_digest": rep.planDigest,
		"latency_samples": len(rep.latencies), "error_share": ratio(float64(rep.failed), float64(rep.attempted)),
		"failures": rep.failures,
	}))
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	res.Correct = rep.failed == 0 && rep.attempted > 0
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.layers[m.name], m.unit}
		}
		return res, rep, nil
	}
	q := rep.quality
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("latency_p50_s", "s", quantile(rep.latencies, 0.5))
	put("latency_p90_s", "s", quantile(rep.latencies, 0.9))
	put("throughput_rps", "1/s", ratio(float64(len(rep.latencies)), rep.wall))
	put("ok_share", "share", 1-ratio(float64(rep.failed), float64(rep.attempted)))
	put("plan_cost_usd", "USD", ratio(q.planCost, float64(q.planned)))
	put("feasible_share", "share", ratio(float64(q.feasible), float64(q.planned)))
	put("deadline_hit_share", "share", q.deadlineHit)
	put("realized_cost_usd", "USD", q.realizedCost)
	put("setup_s", "s", median(rep.setups))
	put("alloc_mb_per_req", "MB", ratio(rep.allocMB, float64(rep.attempted)))
	put("peak_rss_mb", "MB", peakRSSMB())
	return res, rep, nil
}

// probe brackets a timed region: wall time, bytes allocated, GC cycles and
// GC pause time.
type probe struct {
	t0 time.Time
	m0 goruntime.MemStats
}

func startProbe() *probe {
	goruntime.GC()
	p := &probe{}
	goruntime.ReadMemStats(&p.m0)
	p.t0 = time.Now()
	return p
}

func (p *probe) stop() (wall, allocMB float64, gcs uint32, pauseS float64) {
	wall = since(p.t0)
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return wall, float64(m.TotalAlloc-p.m0.TotalAlloc) / (1 << 20), m.NumGC - p.m0.NumGC,
		time.Duration(m.PauseTotalNs - p.m0.PauseTotalNs).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile is the linear-interpolation (type 7) sample quantile.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// stamp identifies the host and the code measured: CPU counts, Go version,
// the VCS revision when the build had one, and a digest of the module's Go
// sources (which identifies the code even in a checkout without history).
func stamp() map[string]any {
	commit := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
		"go": goruntime.Version(), "commit": commit, "source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes every .go file and go.mod under root (the repository
// root the benchmark runs from), skipping hidden directories, in path order.
func sourceDigest(root string) string {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "unknown"
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
