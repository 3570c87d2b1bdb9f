package calib

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"deco/internal/cloud"
)

func run(t *testing.T, samples int) (*cloud.Catalog, *Result) {
	t.Helper()
	cat := cloud.DefaultCatalog()
	opt := DefaultOptions()
	opt.Samples = samples
	res, err := Run(cat, opt, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return cat, res
}

func TestRunRecoversTable2(t *testing.T) {
	cat, res := run(t, 10000)
	if len(res.Reports) != len(cat.Types) {
		t.Fatalf("reports %d, want %d", len(res.Reports), len(cat.Types))
	}
	for _, rep := range res.Reports {
		truthSeq := cat.Perf.SeqIO[rep.Type]
		truthRand := cat.Perf.RandIO[rep.Type]
		// Means must be recovered within 3%.
		if math.Abs(rep.SeqGamma.Mean()-truthSeq.Mean())/truthSeq.Mean() > 0.03 {
			t.Errorf("%s: seq mean %v vs truth %v", rep.Type, rep.SeqGamma.Mean(), truthSeq.Mean())
		}
		if math.Abs(rep.RandNormal.Mu-truthRand.Mean())/truthRand.Mean() > 0.03 {
			t.Errorf("%s: rand mu %v vs truth %v", rep.Type, rep.RandNormal.Mu, truthRand.Mean())
		}
		// Goodness-of-fit must not reject the true family.
		if !rep.SeqKSPass {
			t.Errorf("%s: KS rejected Gamma for seq I/O (stat %v)", rep.Type, rep.SeqKSStat)
		}
		if !rep.RandKSPass {
			t.Errorf("%s: KS rejected Normal for rand I/O (stat %v)", rep.Type, rep.RandKSStat)
		}
		if !rep.NetKSPass {
			t.Errorf("%s: KS rejected Normal for network", rep.Type)
		}
	}
}

func TestRunMetadataComplete(t *testing.T) {
	cat, res := run(t, 2000)
	if err := res.Metadata.Validate(cat); err != nil {
		t.Fatal(err)
	}
	// Histogram mean tracks ground truth.
	h := res.Metadata.SeqIO["m1.large"]
	truth := cat.Perf.SeqIO["m1.large"]
	if math.Abs(h.Mean()-truth.Mean())/truth.Mean() > 0.05 {
		t.Errorf("metadata drifted: %v vs %v", h.Mean(), truth.Mean())
	}
}

func TestRunValidation(t *testing.T) {
	cat := cloud.DefaultCatalog()
	if _, err := Run(cat, Options{Samples: 5, Bins: 10}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("too few samples accepted")
	}
	if _, err := Run(cat, Options{Samples: 100, Bins: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("too few bins accepted")
	}
}

func TestInstanceRecycling(t *testing.T) {
	_, res := run(t, 601)
	m := res.Raw["m1.small"]["seqio"]
	// 601 one-minute probes with hourly recycling: 10 replacements.
	if m.Recycles != 10 {
		t.Errorf("recycles %d, want 10", m.Recycles)
	}
}

func TestTable2Rendering(t *testing.T) {
	_, res := run(t, 2000)
	tbl := res.Table2()
	for _, typ := range []string{"m1.small", "m1.medium", "m1.large", "m1.xlarge"} {
		if !strings.Contains(tbl, typ) {
			t.Errorf("Table2 missing %s:\n%s", typ, tbl)
		}
	}
	if !strings.Contains(tbl, "k=") || !strings.Contains(tbl, "sigma=") {
		t.Errorf("Table2 missing parameters:\n%s", tbl)
	}
}

func TestNetSeriesNormalized(t *testing.T) {
	_, res := run(t, 2000)
	s := res.NetSeries("m1.medium")
	if len(s) != 2000 {
		t.Fatalf("series length %d", len(s))
	}
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("normalized series mean %v, want 1", mean)
	}
	if res.NetSeries("nope") != nil {
		t.Error("unknown type should return nil series")
	}
}

func TestMaxVariancePctMediumVsLarge(t *testing.T) {
	_, res := run(t, 10000)
	med := res.MaxVariancePct("m1.medium")
	lrg := res.MaxVariancePct("m1.large")
	// Fig 6a: m1.medium max deviation should be substantial (tens of %)...
	if med < 30 {
		t.Errorf("m1.medium max variance %v%%, expected >= 30%%", med)
	}
	// ...and clearly larger than m1.large's (Fig 7).
	if med <= lrg {
		t.Errorf("medium (%v%%) should exceed large (%v%%)", med, lrg)
	}
}

func TestNetHistogram(t *testing.T) {
	_, res := run(t, 2000)
	h, err := res.NetHistogram("m1.medium", 20)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins() != 20 {
		t.Errorf("bins %d", h.Bins())
	}
	if _, err := res.NetHistogram("zzz", 20); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestLinkHistogramWeakerEndpoint(t *testing.T) {
	cat := cloud.DefaultCatalog()
	rng := rand.New(rand.NewSource(5))
	hMix, err := LinkHistogram(cat, "m1.medium", "m1.large", 5000, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The mixed link behaves like the medium endpoint: mean near 75, not 100.
	if math.Abs(hMix.Mean()-75) > 5 {
		t.Errorf("mixed link mean %v, want ~75", hMix.Mean())
	}
	hLarge, err := LinkHistogram(cat, "m1.large", "m1.large", 5000, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hLarge.Mean() <= hMix.Mean() {
		t.Errorf("large-large link (%v) should beat mixed (%v)", hLarge.Mean(), hMix.Mean())
	}
	// Large-large should also be tighter (Fig 7a vs 7b).
	if math.Sqrt(hLarge.Var())/hLarge.Mean() >= math.Sqrt(hMix.Var())/hMix.Mean() {
		t.Error("large-large link should have smaller relative spread")
	}
	if _, err := LinkHistogram(cat, "zz", "m1.large", 100, 10, rng); err == nil {
		t.Error("unknown endpoint accepted")
	}
}
