// Package calib implements the cloud-calibration pipeline of §6.1/§6.2: it
// runs micro-benchmarks (hdparm-style sequential reads, 512-byte random
// reads, iperf-style bandwidth probes) against instances, collects samples
// — "once a minute, ... 7 days (in total 10,000 times)", recycling each
// instance at the full hour — fits parametric distributions (sequential I/O
// → Gamma, random I/O → Normal, network → Normal), runs goodness-of-fit
// tests, and stores the discretized histograms in the metadata store.
//
// Because the real EC2 is unavailable, the probes measure the *simulated*
// cloud: draws from the catalog's ground-truth distributions. Calibration
// must recover the Table 2 parameters from those measurements.
package calib

import (
	"fmt"
	"math/rand"
	"strings"

	"deco/internal/cloud"
	"deco/internal/dist"
)

// Options configures a calibration run.
type Options struct {
	// Samples per (type, metric). The paper's setup measures once a minute
	// for 7 days ≈ 10,000 samples.
	Samples int
	// Bins of the stored histograms.
	Bins int
	// InstanceHourMinutes is how many one-minute probes an instance serves
	// before it is released and replaced (the paper recycles at the full
	// hour).
	InstanceHourMinutes int
}

// DefaultOptions mirror the paper's measurement methodology.
func DefaultOptions() Options {
	return Options{Samples: 10000, Bins: 30, InstanceHourMinutes: 60}
}

// Measurement is the raw series of one micro-benchmark against one target.
type Measurement struct {
	Type   string // instance type probed
	Metric string // "seqio", "randio", "net"
	Values []float64
	// Recycles counts how many instances were consumed (one per full hour).
	Recycles int
}

// probe collects n samples from the ground-truth distribution d, recycling
// the (simulated) instance every hourMin probes.
func probe(d dist.Dist, n, hourMin int, rng *rand.Rand) ([]float64, int) {
	vals := make([]float64, n)
	recycles := 0
	for i := 0; i < n; i++ {
		if hourMin > 0 && i > 0 && i%hourMin == 0 {
			recycles++ // release the instance, acquire a fresh one
		}
		vals[i] = d.Sample(rng)
	}
	return vals, recycles
}

// TypeReport is one row of Table 2: the fitted sequential-I/O Gamma and
// random-I/O Normal for one instance type, with fit diagnostics.
type TypeReport struct {
	Type string

	SeqGamma   dist.Gamma
	SeqKSPass  bool
	SeqKSStat  float64
	RandNormal dist.Normal
	RandKSPass bool
	RandKSStat float64

	NetNormal dist.Normal
	NetKSPass bool
}

// Result is the full calibration outcome.
type Result struct {
	Reports  []TypeReport
	Metadata *cloud.Metadata
	// Raw measurement series, kept for the Figure 6/7 renderings.
	Raw map[string]map[string]*Measurement // type -> metric -> measurement
}

// Run calibrates every instance type in the catalog.
func Run(cat *cloud.Catalog, opt Options, rng *rand.Rand) (*Result, error) {
	if opt.Samples < 10 {
		return nil, fmt.Errorf("calib: need at least 10 samples, got %d", opt.Samples)
	}
	if opt.Bins < 2 {
		return nil, fmt.Errorf("calib: need at least 2 bins, got %d", opt.Bins)
	}
	res := &Result{
		Metadata: cloud.NewMetadata(),
		Raw:      map[string]map[string]*Measurement{},
	}
	for _, it := range cat.Types {
		raw := map[string]*Measurement{}
		res.Raw[it.Name] = raw
		rep := TypeReport{Type: it.Name}

		// Sequential I/O: hdparm-style buffered reads → Gamma fit.
		seqVals, rec := probe(cat.Perf.SeqIO[it.Name], opt.Samples, opt.InstanceHourMinutes, rng)
		raw["seqio"] = &Measurement{Type: it.Name, Metric: "seqio", Values: seqVals, Recycles: rec}
		g, err := dist.FitGamma(seqVals)
		if err != nil {
			return nil, fmt.Errorf("calib: %s seq I/O: %w", it.Name, err)
		}
		rep.SeqGamma = g
		rep.SeqKSPass, rep.SeqKSStat, _ = dist.KSTest(seqVals, g, 0.05)

		// Random I/O: 512-byte random reads → Normal fit.
		randVals, _ := probe(cat.Perf.RandIO[it.Name], opt.Samples, opt.InstanceHourMinutes, rng)
		raw["randio"] = &Measurement{Type: it.Name, Metric: "randio", Values: randVals}
		nrm := dist.FitNormal(randVals)
		rep.RandNormal = nrm
		rep.RandKSPass, rep.RandKSStat, _ = dist.KSTest(randVals, nrm, 0.05)

		// Network: iperf between two instances of this type → Normal fit.
		netVals, _ := probe(cat.Perf.Net[it.Name], opt.Samples, opt.InstanceHourMinutes, rng)
		raw["net"] = &Measurement{Type: it.Name, Metric: "net", Values: netVals}
		netFit := dist.FitNormal(netVals)
		rep.NetNormal = netFit
		rep.NetKSPass, _, _ = dist.KSTest(netVals, netFit, 0.05)

		// Store discretized histograms in the metadata store.
		if res.Metadata.SeqIO[it.Name], err = dist.FromSamples(seqVals, opt.Bins); err != nil {
			return nil, err
		}
		if res.Metadata.RandIO[it.Name], err = dist.FromSamples(randVals, opt.Bins); err != nil {
			return nil, err
		}
		if res.Metadata.Net[it.Name], err = dist.FromSamples(netVals, opt.Bins); err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, rep)
	}
	// Cross-region bandwidth.
	xVals, _ := probe(cat.Perf.CrossRegionNet, opt.Samples, opt.InstanceHourMinutes, rng)
	var err error
	if res.Metadata.CrossRegionNet, err = dist.FromSamples(xVals, opt.Bins); err != nil {
		return nil, err
	}
	return res, nil
}

// Table2 renders the calibration reports in the layout of Table 2.
func (r *Result) Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-28s %-28s\n", "Instance", "Sequential I/O (Gamma)", "Random I/O (Normal)")
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "%-12s k=%-8.1f theta=%-10.2f mu=%-8.1f sigma=%-8.1f\n",
			rep.Type, rep.SeqGamma.K, rep.SeqGamma.Theta, rep.RandNormal.Mu, rep.RandNormal.Sigma)
	}
	return b.String()
}

// NetSeries returns the network measurement series of the given type,
// normalized to its mean — the time-series view of Figure 6a. It returns nil
// if the type was not calibrated.
func (r *Result) NetSeries(typ string) []float64 {
	raw, ok := r.Raw[typ]
	if !ok {
		return nil
	}
	m := raw["net"]
	if m == nil {
		return nil
	}
	mean := dist.MeanOf(m.Values)
	out := make([]float64, len(m.Values))
	for i, v := range m.Values {
		out[i] = v / mean
	}
	return out
}

// MaxVariancePct returns the maximum relative deviation from the mean (in
// percent) observed in the network series of typ — the "maximum variance can
// reach up to 50%" statistic of §6.2.
func (r *Result) MaxVariancePct(typ string) float64 {
	s := r.NetSeries(typ)
	maxDev := 0.0
	for _, v := range s {
		d := v - 1
		if d < 0 {
			d = -d
		}
		if d > maxDev {
			maxDev = d
		}
	}
	return maxDev * 100
}

// NetHistogram returns the measured network histogram of typ with the given
// number of bins (Figure 6b / Figure 7), or an error if not calibrated.
func (r *Result) NetHistogram(typ string, bins int) (*dist.Histogram, error) {
	raw, ok := r.Raw[typ]
	if !ok || raw["net"] == nil {
		return nil, fmt.Errorf("calib: type %q not calibrated", typ)
	}
	return dist.FromSamples(raw["net"].Values, bins)
}

// LinkHistogram returns the measured bandwidth histogram between two
// instance types, probing the weaker endpoint as in Figure 7b.
func LinkHistogram(cat *cloud.Catalog, typeA, typeB string, samples, bins int, rng *rand.Rand) (*dist.Histogram, error) {
	d, err := cat.LinkDist(typeA, typeB)
	if err != nil {
		return nil, err
	}
	vals, _ := probe(d, samples, 60, rng)
	return dist.FromSamples(vals, bins)
}
