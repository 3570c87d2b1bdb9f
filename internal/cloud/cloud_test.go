package cloud

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deco/internal/dist"
)

func TestDefaultCatalogValid(t *testing.T) {
	cat := DefaultCatalog()
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cat.Types) != 4 {
		t.Errorf("types %d, want 4", len(cat.Types))
	}
	names := cat.TypeNames()
	want := []string{"m1.small", "m1.medium", "m1.large", "m1.xlarge"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("type %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestPriceLookups(t *testing.T) {
	cat := DefaultCatalog()
	us, err := cat.Price(USEast, "m1.small")
	if err != nil {
		t.Fatal(err)
	}
	if us != 0.044 { // the paper's m1.small price (§4.2 example fact)
		t.Errorf("us m1.small price %v", us)
	}
	sg, err := cat.Price(APSoutheast, "m1.small")
	if err != nil {
		t.Fatal(err)
	}
	// §6.1: "the price difference of the m1.small instances is 33%".
	if math.Abs(sg/us-1.33) > 1e-9 {
		t.Errorf("sg/us ratio %v, want 1.33", sg/us)
	}
	if _, err := cat.Price("nowhere", "m1.small"); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := cat.Price(USEast, "m9.mega"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestTypeLookups(t *testing.T) {
	cat := DefaultCatalog()
	it, err := cat.Type("m1.large")
	if err != nil {
		t.Fatal(err)
	}
	if it.ECU != 4 {
		t.Errorf("m1.large ECU %v", it.ECU)
	}
	if _, err := cat.Type("zzz"); err == nil {
		t.Error("unknown type accepted")
	}
	if got := cat.TypeIndex("m1.medium"); got != 1 {
		t.Errorf("index %d", got)
	}
	if got := cat.TypeIndex("zzz"); got != -1 {
		t.Errorf("index of unknown %d", got)
	}
}

func TestECUAndPricesMonotone(t *testing.T) {
	cat := DefaultCatalog()
	us, _ := cat.Region(USEast)
	prevECU, prevPrice := 0.0, 0.0
	for _, it := range cat.Types {
		if it.ECU <= prevECU {
			t.Errorf("ECU not increasing at %s", it.Name)
		}
		if us.PricePerHour[it.Name] <= prevPrice {
			t.Errorf("price not increasing at %s", it.Name)
		}
		prevECU, prevPrice = it.ECU, us.PricePerHour[it.Name]
	}
}

func TestTable2GroundTruth(t *testing.T) {
	cat := DefaultCatalog()
	// Spot-check two Table 2 entries via the distribution moments.
	seq := cat.Perf.SeqIO["m1.small"]
	if math.Abs(seq.Mean()-129.3*0.79) > 1e-9 {
		t.Errorf("m1.small seq mean %v", seq.Mean())
	}
	randIO := cat.Perf.RandIO["m1.xlarge"]
	if randIO.Mean() != 1034.0 {
		t.Errorf("m1.xlarge rand mean %v", randIO.Mean())
	}
}

func TestLinkDistWeakerEndpoint(t *testing.T) {
	cat := DefaultCatalog()
	d, err := cat.LinkDist("m1.medium", "m1.large")
	if err != nil {
		t.Fatal(err)
	}
	// Fig 7b: the medium endpoint dominates the link behaviour.
	if d.Mean() != cat.Perf.Net["m1.medium"].Mean() {
		t.Errorf("link mean %v, want m1.medium mean", d.Mean())
	}
	// Symmetric.
	d2, err := cat.LinkDist("m1.large", "m1.medium")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Mean() != d.Mean() {
		t.Error("link not symmetric")
	}
	if _, err := cat.LinkDist("zzz", "m1.small"); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := cat.LinkDist("m1.small", "zzz"); err == nil {
		t.Error("unknown endpoint accepted")
	}
}

func TestNetworkVarianceShrinksWithSize(t *testing.T) {
	cat := DefaultCatalog()
	med := cat.Perf.Net["m1.medium"]
	lrg := cat.Perf.Net["m1.large"]
	cvMed := math.Sqrt(med.Var()) / med.Mean()
	cvLrg := math.Sqrt(lrg.Var()) / lrg.Mean()
	if cvMed <= cvLrg {
		t.Errorf("medium cv %v should exceed large cv %v (Fig 7)", cvMed, cvLrg)
	}
}

func TestMetadataFromTruth(t *testing.T) {
	cat := DefaultCatalog()
	rng := rand.New(rand.NewSource(1))
	md, err := MetadataFromTruth(cat, 20, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Validate(cat); err != nil {
		t.Fatal(err)
	}
	// Histogram moments track ground truth.
	for _, typ := range cat.TypeNames() {
		truth := cat.Perf.SeqIO[typ]
		h := md.SeqIO[typ]
		if math.Abs(h.Mean()-truth.Mean())/truth.Mean() > 0.05 {
			t.Errorf("%s seq mean drifted: %v vs %v", typ, h.Mean(), truth.Mean())
		}
	}
	if math.Abs(md.CrossRegionNet.Mean()-25) > 2 {
		t.Errorf("cross-region mean %v", md.CrossRegionNet.Mean())
	}
}

func TestMetadataValidateDetectsGaps(t *testing.T) {
	cat := DefaultCatalog()
	md := NewMetadata()
	if err := md.Validate(cat); err == nil {
		t.Error("empty metadata passed validation")
	}
}

func TestCatalogValidateDetectsProblems(t *testing.T) {
	empty := &Catalog{}
	if err := empty.Validate(); err == nil {
		t.Error("empty catalog passed")
	}
	cat := DefaultCatalog()
	delete(cat.Regions[0].PricePerHour, "m1.small")
	if err := cat.Validate(); err == nil {
		t.Error("missing price passed")
	}
	cat = DefaultCatalog()
	delete(cat.Perf.Net, "m1.small")
	if err := cat.Validate(); err == nil {
		t.Error("missing perf model passed")
	}
	cat = DefaultCatalog()
	cat.Perf.CrossRegionNet = nil
	if err := cat.Validate(); err == nil {
		t.Error("missing cross-region model passed")
	}
	cat = DefaultCatalog()
	cat.Regions = nil
	if err := cat.Validate(); err == nil {
		t.Error("no regions passed")
	}
}

// TestValidateRejectsUnknownNetRegion is the regression test for the typoed
// transfer destination: before the fix a NetPricePerGB entry naming a
// nonexistent region validated fine and priced every transfer to it as free.
func TestValidateRejectsUnknownNetRegion(t *testing.T) {
	cat := DefaultCatalog()
	cat.Regions[0].NetPricePerGB["ap-southeast-7"] = 0.09
	if err := cat.Validate(); err == nil {
		t.Fatal("NetPricePerGB entry naming an unknown region passed validation")
	}
}

func TestValidateRejectsBadSpotMarkets(t *testing.T) {
	broken := []func(*Catalog){
		func(c *Catalog) { c.Regions[0].Spot["m9.mega"] = SpotMarket{PricePerHourMean: 0.01} },
		func(c *Catalog) {
			c.Regions[0].Spot[SpotName("m1.small")] = SpotMarket{PricePerHourMean: 0.01}
		},
		func(c *Catalog) { c.Regions[0].Spot["m1.small"] = SpotMarket{PricePerHourMean: 0} },
		func(c *Catalog) {
			c.Regions[0].Spot["m1.small"] = SpotMarket{PricePerHourMean: 0.01, PriceSigma: -1}
		},
		func(c *Catalog) {
			c.Regions[0].Spot["m1.small"] = SpotMarket{PricePerHourMean: 0.01, RevocationsPerHour: -2}
		},
	}
	for i, mutate := range broken {
		cat := DefaultCatalog()
		mutate(cat)
		if err := cat.Validate(); err == nil {
			t.Errorf("case %d: broken spot market passed validation", i)
		}
	}
}

func TestSpotHelpers(t *testing.T) {
	if got := SpotName("m1.small"); got != "m1.small:spot" {
		t.Errorf("SpotName = %q", got)
	}
	if !IsSpotName("m1.small:spot") || IsSpotName("m1.small") {
		t.Error("IsSpotName misclassifies")
	}
	if BaseType("m1.small:spot") != "m1.small" || BaseType("m1.large") != "m1.large" {
		t.Error("BaseType misresolves")
	}
	cat := DefaultCatalog()
	m, err := cat.Spot(USEast, "m1.small")
	if err != nil {
		t.Fatal(err)
	}
	od, _ := cat.Price(USEast, "m1.small")
	if m.PricePerHourMean <= 0 || m.PricePerHourMean >= od {
		t.Errorf("spot mean %v not below on-demand %v", m.PricePerHourMean, od)
	}
	// The virtual name resolves to the same market.
	m2, err := cat.Spot(USEast, SpotName("m1.small"))
	if err != nil || m2 != m {
		t.Errorf("spot via virtual name: %v %v", m2, err)
	}
	if _, err := cat.Spot(USEast, "m9.mega"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := cat.Spot("nowhere", "m1.small"); err == nil {
		t.Error("unknown region accepted")
	}
}

// discretizeAll is MetadataFromTruth before bandwidths were binned over
// their positive draws: every quantity through dist.Discretize.
func discretizeAll(t *testing.T, cat *Catalog, bins, samples int, rng *rand.Rand) *Metadata {
	t.Helper()
	md := NewMetadata()
	disc := func(d dist.Dist) *dist.Histogram {
		h, err := dist.Discretize(d, bins, samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, typ := range cat.Types {
		md.SeqIO[typ.Name] = disc(cat.Perf.SeqIO[typ.Name])
		md.RandIO[typ.Name] = disc(cat.Perf.RandIO[typ.Name])
		md.Net[typ.Name] = disc(cat.Perf.Net[typ.Name])
	}
	md.CrossRegionNet = disc(cat.Perf.CrossRegionNet)
	return md
}

// TestMetadataSeedOneUnchanged pins seed-1 metadata, at the sizes the
// engine, experiments and benchmarks use, to the all-draws binning: seed 1
// draws no non-positive bandwidth, so filtering must change nothing.
func TestMetadataSeedOneUnchanged(t *testing.T) {
	cat := DefaultCatalog()
	for _, sz := range [][2]int{{20, 10000}, {20, 8000}, {15, 5000}, {15, 4000}} {
		got, err := MetadataFromTruth(cat, sz[0], sz[1], rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := discretizeAll(t, cat, sz[0], sz[1], rand.New(rand.NewSource(1)))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bins=%d samples=%d: seed-1 metadata changed", sz[0], sz[1])
		}
	}
}

// TestMetadataBandwidthBinsPositive checks a seed whose m1.small network
// truth, Normal(55, 11), draws a negative rate: the bandwidth histograms
// keep only positive bins, while random I/O (never inverted) keeps all.
func TestMetadataBandwidthBinsPositive(t *testing.T) {
	cat := DefaultCatalog()
	md, err := MetadataFromTruth(cat, 20, 10000, rand.New(rand.NewSource(486206)))
	if err != nil {
		t.Fatal(err)
	}
	raw := discretizeAll(t, cat, 20, 10000, rand.New(rand.NewSource(486206)))
	if lo, _ := raw.Net["m1.small"].Support(); lo > 0 {
		t.Fatalf("seed no longer draws a non-positive m1.small rate (support from %v)", lo)
	}
	positive := func(name string, h *dist.Histogram) {
		if lo, _ := h.Support(); lo <= 0 {
			t.Errorf("%s: histogram support starts at %v", name, lo)
		}
	}
	for _, typ := range cat.TypeNames() {
		positive("seqio "+typ, md.SeqIO[typ])
		positive("net "+typ, md.Net[typ])
		if !reflect.DeepEqual(md.RandIO[typ], raw.RandIO[typ]) {
			t.Errorf("randio %s: histogram changed", typ)
		}
	}
	positive("cross-region net", md.CrossRegionNet)
}
