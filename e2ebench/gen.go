package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"deco"
	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/dax"
	"deco/internal/opt"
	"deco/internal/wfgen"
	"deco/internal/wlog"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPlanCold = "plan-cold"
	wlWlogSpot = "wlog-spot-adaptive"
	wlManaged  = "decod-managed"
)

// workload fixes a workload's closed loop: its callers (at most one per core
// of the 2-core reference host) and its nominal request rate there. A run
// issues max(minRequests, seconds × rate) requests, so the request count is a
// fixed function of --seconds, never of measured time.
type workload struct {
	rate    float64
	callers int
}

// The library workloads use one caller: the engine's two-level device
// already spreads each solve over both cores, and a second caller mostly adds
// scheduling noise. decod-managed runs two workers fed by two clients.
var workloads = map[string]workload{
	wlPlanCold: {rate: 3.4, callers: 1},
	wlWlogSpot: {rate: 3.4, callers: 1},
	wlManaged:  {rate: 3.4, callers: 2},
}

// minRequests keeps ten latency samples beyond the p90.
const minRequests = 100

// request is one generated input. Library workloads send DAX (plus Program
// for WLog requests); decod-managed sends either DAX or a spot Program.
type request struct {
	Index    int
	App      string
	DAX      string
	Program  string
	Goal     string  // "cost" or "makespan"
	Pct      float64 // percentile of the request's constraint
	Deadline float64 // seconds; 0 when the request has no deadline
	Budget   float64 // dollars; 0 when the request has no budget
	// Managed-run knobs: the solver/simulator seed, the performance drift
	// and the spot revocation-hazard scale.
	Seed       int64
	Perturb    float64
	SpotHazard float64
	// Spots and XferFrom restate the program's market facts.
	Spots    []string
	XferFrom string
}

var apps = []wfgen.App{wfgen.AppMontage, wfgen.AppCyberShake, wfgen.AppLigo, wfgen.AppEpigenomics}

// mix derives the i-th substream seed from the workload seed (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// anchors returns Dmin (every task on the fastest type) and Dmax (every task
// on the slowest) from mean durations, and the packed mean cost of the
// all-slowest and all-fastest configurations — the deadline and budget
// anchors of the paper's §6.1 settings, as internal/exp derives them.
func anchors(eng *deco.Engine, w *dag.Workflow, xferFrom string) (dmin, dmax, cmin, cmax float64, err error) {
	tbl, prices, _, err := marketTable(eng, w, nil, xferFrom)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	uniform := func(idx int) (float64, float64, error) {
		cfg := make(map[string]int, w.Len())
		st := make(opt.State, w.Len())
		for i, t := range w.Tasks {
			cfg[t.ID] = idx
			st[i] = idx
		}
		means, err := tbl.MeanDurations(cfg)
		if err != nil {
			return 0, 0, err
		}
		ms, _, err := w.Makespan(means)
		if err != nil {
			return 0, 0, err
		}
		c, err := opt.PackedMeanCost(w, st, tbl, prices, cloud.USEast)
		return ms, c, err
	}
	if dmin, cmax, err = uniform(len(tbl.Types) - 1); err != nil {
		return 0, 0, 0, 0, err
	}
	if dmax, cmin, err = uniform(0); err != nil {
		return 0, 0, 0, 0, err
	}
	return dmin, dmax, cmin, cmax, nil
}

// deadlineFor materializes the tight/medium/loose settings of §6.1.
func deadlineFor(class string, dmin, dmax float64) float64 {
	switch class {
	case "tight":
		return 1.5 * dmin
	case "loose":
		return 0.75 * dmax
	case "relaxed":
		return 2 * dmax
	}
	return (dmin + dmax) / 2
}

var classes = []string{"tight", "medium", "loose"}

// workflowFor generates the i-th workflow of app near the target size, with
// task runtimes and file sizes jittered by the request's own substream.
func workflowFor(app wfgen.App, target int, rng *rand.Rand, name string) (*dag.Workflow, string, error) {
	w, err := wfgen.BySize(app, target, rng)
	if err != nil {
		return nil, "", err
	}
	w.Name = name
	var buf bytes.Buffer
	if err := dax.Write(&buf, w); err != nil {
		return nil, "", err
	}
	// Requests carry the DAX text, so the workflow the engine sees is the
	// parsed document, exactly as a caller holding a DAX file would build it.
	parsed, err := dax.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, "", err
	}
	return parsed, buf.String(), nil
}

// pct formats a percentile for WLog ("90%").
func pctWLog(p float64) string { return fmt.Sprintf("%g%%", math.Round(p*1000)/10) }

// genPlanCold builds n Schedule requests: apps, deadline settings,
// percentiles and size levels rotate so every seed has the same composition
// (and the same task counts); the seed draws each workflow's task runtimes
// and file sizes, and with them the deadlines.
func genPlanCold(eng *deco.Engine, seed int64, n int) ([]request, error) {
	sizes := []int{40, 50, 60, 70, 80}
	pcts := []float64{0.9, 0.96}
	out := make([]request, n)
	for i := range out {
		rng := rand.New(rand.NewSource(mix(seed, i)))
		app := apps[i%len(apps)]
		class := classes[(i/4)%3]
		p := pcts[(i/12)%2]
		target := sizes[(i/24)%len(sizes)]
		w, doc, err := workflowFor(app, target, rng, fmt.Sprintf("%s-%d", app, i))
		if err != nil {
			return nil, err
		}
		dmin, dmax, _, _, err := anchors(eng, w, "")
		if err != nil {
			return nil, err
		}
		out[i] = request{Index: i, App: string(app), DAX: doc, Goal: "cost", Pct: p,
			Deadline: roundTo(deadlineFor(class, dmin, dmax), 1)}
	}
	return out, nil
}

var m1Types = []string{"m1.small", "m1.medium", "m1.large", "m1.xlarge"}

// genWlogSpot builds n WLog program requests: four in five minimize cost
// under a deadline, one in five minimizes makespan under a budget; every
// program offers a seeded subset of the m1 types on the spot market, and one
// in three declares that its inputs live in ap-southeast-1.
func genWlogSpot(eng *deco.Engine, seed int64, n int) ([]request, error) {
	sizes := []int{30, 40, 50, 60, 70}
	pcts := []float64{0.9, 0.96}
	out := make([]request, n)
	for i := range out {
		rng := rand.New(rand.NewSource(mix(seed, i)))
		app := apps[i%len(apps)]
		variant := (i / 4) % 5
		xfer := (i/20)%3 == 2
		p := pcts[(i/60)%2]
		target := sizes[(i/4+i/20)%len(sizes)]
		w, doc, err := workflowFor(app, target, rng, fmt.Sprintf("%s-%d", app, i))
		if err != nil {
			return nil, err
		}
		r := request{Index: i, App: string(app), DAX: doc, Pct: p}
		if xfer {
			r.XferFrom = cloud.APSoutheast
		}
		k := 1 + rng.Intn(2)
		for _, j := range rng.Perm(len(m1Types))[:k] {
			r.Spots = append(r.Spots, m1Types[j])
		}
		dmin, dmax, cmin, cmax, err := anchors(eng, w, r.XferFrom)
		if err != nil {
			return nil, err
		}
		var prog bytes.Buffer
		prog.WriteString("import(amazonec2).\n")
		for _, s := range r.Spots {
			fmt.Fprintf(&prog, "spot('%s').\n", s)
		}
		if xfer {
			fmt.Fprintf(&prog, "transfer('%s', '%s').\n", cloud.APSoutheast, cloud.USEast)
		}
		if variant < 4 {
			r.Goal = "cost"
			prog.WriteString("minimize Ct in totalcost(Ct).\n")
			fmt.Fprintf(&prog, "T in maxtime(P,T) satisfies deadline(%s,%gs).\n", pctWLog(p), roundTo(deadlineFor(classes[variant%3], dmin, dmax), 1))
		} else {
			r.Goal = "makespan"
			prog.WriteString("minimize T in maxtime(P,T).\n")
			fmt.Fprintf(&prog, "C in totalcost(C) satisfies budget(%s,%g).\n", pctWLog(p), roundTo((cmin+cmax)/2, 100))
		}
		if err := r.setProgram(prog.String()); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Drift levels each managed plan problem is replayed under (1 = none).
var drifts = []float64{1, 0.8, 0.6}

// decodSeed is decod's default solver and simulator seed. Managed requests
// leave the seed to it, as a client that does not pin one does.
const decodSeed = 1

// genManaged builds n managed-run requests: n/3 plan problems (DAX workflows
// of 22–66 tasks with relaxed deadlines, and one in five a spot program on a
// bag of tasks with an inflated revocation hazard), each submitted once per
// drift level. Requests run in blocks of four problems, drift-major within a
// block, so a problem's later runs find its plan evaluations in decod's
// shared eval cache before other problems evict them.
func genManaged(seed int64, n int) ([]request, error) {
	problems := (n + len(drifts) - 1) / len(drifts)
	sizes := []int{20, 28, 36, 44, 52}
	eng, err := deco.NewEngine(deco.WithSeed(decodSeed))
	if err != nil {
		return nil, err
	}
	base := make([]request, problems)
	for j := range base {
		rng := rand.New(rand.NewSource(mix(seed, j)))
		r := request{Seed: decodSeed, Goal: "cost", Pct: 0.9, SpotHazard: 1}
		if j%5 == 4 {
			// Bags differ by deadline setting and hazard only: the program
			// imports the bag by name.
			w, err := deco.NamedWorkflow("bag", decodSeed)
			if err != nil {
				return nil, err
			}
			r.App = "bag"
			r.Spots = []string{"m1.small"}
			r.SpotHazard = []float64{4, 8, 16}[(j/5)%3]
			dmin, dmax, _, _, err := anchors(eng, w, "")
			if err != nil {
				return nil, err
			}
			class := []string{"medium", "loose"}[(j/5)%2]
			err = r.setProgram(fmt.Sprintf("import(amazonec2).\nimport(bag).\nspot('m1.small').\nminimize Ct in totalcost(Ct).\nT in maxtime(P,T) satisfies deadline(%s,%gs).\n",
				pctWLog(r.Pct), roundTo(deadlineFor(class, dmin, dmax), 1)))
			if err != nil {
				return nil, err
			}
		} else {
			app := apps[j%len(apps)]
			target := sizes[(j/5)%len(sizes)]
			w, doc, err := workflowFor(app, target, rng, fmt.Sprintf("%s-%d", app, j))
			if err != nil {
				return nil, err
			}
			dmin, dmax, _, _, err := anchors(eng, w, "")
			if err != nil {
				return nil, err
			}
			r.App = string(app)
			r.DAX = doc
			r.Deadline = roundTo(deadlineFor("relaxed", dmin, dmax), 1)
		}
		base[j] = r
	}
	const block = 4
	out := make([]request, 0, n)
	for lo := 0; lo < len(base); lo += block {
		for _, d := range drifts {
			for _, b := range base[lo:min(lo+block, len(base))] {
				if len(out) == n {
					return out, nil
				}
				r := b
				r.Index = len(out)
				r.Perturb = d
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// setProgram installs a generated WLog program and restates its constraint
// as the engine will parse it, so the checks compare like with like.
func (r *request) setProgram(src string) error {
	prog, err := wlog.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program does not parse: %w\n%s", err, src)
	}
	if len(prog.Constraints) != 1 {
		return fmt.Errorf("generated program has %d constraints", len(prog.Constraints))
	}
	c := prog.Constraints[0]
	r.Program, r.Pct = src, c.Percentile
	if c.Kind == "budget" {
		r.Budget = c.Bound
	} else {
		r.Deadline = c.Bound
	}
	return nil
}

func roundTo(x, scale float64) float64 { return math.Round(x*scale) / scale }

// digest folds values into a SHA-256 digest, so two sets of runs can show
// they generated identical inputs and returned identical plans.
type digest struct{ b []byte }

func (d *digest) str(s string) *digest {
	d.b = binary.AppendUvarint(d.b, uint64(len(s)))
	d.b = append(d.b, s...)
	return d
}

func (d *digest) f64(f float64) *digest {
	d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(f))
	return d
}

func (d *digest) i64(i int64) *digest {
	d.b = binary.AppendVarint(d.b, i)
	return d
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.b)
	return hex.EncodeToString(h[:16])
}

func requestDigest(reqs []request) string {
	var d digest
	for _, r := range reqs {
		d.i64(int64(r.Index)).str(r.App).str(r.DAX).str(r.Program).str(r.Goal).
			f64(r.Pct).f64(r.Deadline).f64(r.Budget).i64(r.Seed).f64(r.Perturb).f64(r.SpotHazard)
	}
	return d.sum()
}
