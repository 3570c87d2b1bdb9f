// Package cloud models the IaaS offerings Deco optimizes over: instance
// types with prices and capabilities, regions with distinct pricing (the
// paper's US East and Asia Pacific/Singapore regions), and the performance
// metadata store holding calibrated I/O and network distributions as
// histograms (§4.2, "import(cloud)").
package cloud

import (
	"fmt"
	"math/rand"
	"strings"

	"deco/internal/dist"
)

// InstanceType describes one VM offering. ECU is the CPU capability factor
// relative to the 1-ECU reference machine used for task profiling; the paper
// treats CPU performance as stable, so it is a constant, while I/O and
// network performance are probabilistic.
type InstanceType struct {
	Name  string
	ECU   float64
	MemGB float64
}

// Region is a cloud data center with its own instance pricing and
// networking price to other regions.
type Region struct {
	Name string
	// PricePerHour maps instance type name to its hourly price in USD.
	PricePerHour map[string]float64
	// NetPricePerGB maps destination region name to the USD price of
	// transferring one GB out of this region to it.
	NetPricePerGB map[string]float64
	// Spot maps instance type name to that type's preemptible market in this
	// region. Types without an entry have no spot offering here.
	Spot map[string]SpotMarket
}

// SpotMarket describes the preemptible offering of one instance type in one
// region: a stationary clearing-price process plus a Poisson revocation
// hazard. On-demand pricing is the degenerate market — zero price variance,
// zero hazard — and lives in Region.PricePerHour, not here.
type SpotMarket struct {
	// PricePerHourMean is the mean hourly clearing price in USD.
	PricePerHourMean float64
	// PriceSigma is the relative standard deviation of the clearing price:
	// a draw is PricePerHourMean·(1+PriceSigma·z) with z standard normal,
	// floored at SpotPriceFloorFrac of the mean.
	PriceSigma float64
	// RevocationsPerHour is the Poisson revocation hazard λ: the time until
	// a freshly acquired instance is reclaimed is Exponential(λ) hours.
	RevocationsPerHour float64
}

// SpotPriceFloorFrac floors sampled spot prices at this fraction of the
// market mean, so a deep-left-tail normal draw can never price an instance
// at zero or below.
const SpotPriceFloorFrac = 0.1

// spotSuffix marks the virtual type name of a spot offering. The expanded
// estimation tables append one "<base>:spot" column per spot market after
// the on-demand columns; the suffix keeps the two namespaces disjoint
// because ':' can never appear in a catalog type name.
const spotSuffix = ":spot"

// SpotName returns the virtual type name of base's spot offering.
func SpotName(base string) string { return base + spotSuffix }

// IsSpotName reports whether name refers to a spot offering.
func IsSpotName(name string) bool { return strings.HasSuffix(name, spotSuffix) }

// BaseType strips the spot suffix, returning the underlying catalog type
// name; on-demand names pass through unchanged.
func BaseType(name string) string { return strings.TrimSuffix(name, spotSuffix) }

// PerfModel holds the ground-truth performance distributions of the cloud —
// what the simulator draws from, and what calibration tries to recover.
// Units: SeqIO in MB/s, RandIO in IOPS (512-byte reads), Net in MB/s.
type PerfModel struct {
	SeqIO  map[string]dist.Dist
	RandIO map[string]dist.Dist
	Net    map[string]dist.Dist
	// CrossRegionNet is the bandwidth between any two regions in MB/s.
	CrossRegionNet dist.Dist
}

// Catalog is a complete description of the cloud(s) available to Deco.
type Catalog struct {
	Types   []InstanceType
	Regions []Region
	Perf    PerfModel
}

// TypeNames returns the instance type names in catalog order.
func (c *Catalog) TypeNames() []string {
	names := make([]string, len(c.Types))
	for i, t := range c.Types {
		names[i] = t.Name
	}
	return names
}

// Type returns the instance type with the given name, or an error.
func (c *Catalog) Type(name string) (InstanceType, error) {
	for _, t := range c.Types {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// TypeIndex returns the catalog index of the named type, or -1.
func (c *Catalog) TypeIndex(name string) int {
	for i, t := range c.Types {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Region returns the region with the given name, or an error.
func (c *Catalog) Region(name string) (Region, error) {
	for _, r := range c.Regions {
		if r.Name == name {
			return r, nil
		}
	}
	return Region{}, fmt.Errorf("cloud: unknown region %q", name)
}

// Price returns the hourly price of the named type in the named region.
func (c *Catalog) Price(region, typ string) (float64, error) {
	r, err := c.Region(region)
	if err != nil {
		return 0, err
	}
	p, ok := r.PricePerHour[typ]
	if !ok {
		return 0, fmt.Errorf("cloud: type %q not offered in region %q", typ, region)
	}
	return p, nil
}

// Spot returns the spot market of the named type in the named region, or an
// error when the region is unknown or the type has no spot offering there.
func (c *Catalog) Spot(region, typ string) (SpotMarket, error) {
	r, err := c.Region(region)
	if err != nil {
		return SpotMarket{}, err
	}
	m, ok := r.Spot[BaseType(typ)]
	if !ok {
		return SpotMarket{}, fmt.Errorf("cloud: type %q has no spot market in region %q", BaseType(typ), region)
	}
	return m, nil
}

// Validate checks that every region prices every type and all performance
// distributions exist.
func (c *Catalog) Validate() error {
	if len(c.Types) == 0 {
		return fmt.Errorf("cloud: catalog has no instance types")
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("cloud: catalog has no regions")
	}
	regions := make(map[string]bool, len(c.Regions))
	for _, r := range c.Regions {
		regions[r.Name] = true
	}
	for _, r := range c.Regions {
		for _, t := range c.Types {
			if _, ok := r.PricePerHour[t.Name]; !ok {
				return fmt.Errorf("cloud: region %s missing price for %s", r.Name, t.Name)
			}
		}
		// A typoed destination used to silently price cross-region transfers
		// as free (map miss = zero); reject it at load time instead.
		for dst := range r.NetPricePerGB {
			if !regions[dst] {
				return fmt.Errorf("cloud: region %s prices network to unknown region %q", r.Name, dst)
			}
		}
		for typ, m := range r.Spot {
			if IsSpotName(typ) {
				return fmt.Errorf("cloud: region %s spot market keyed by virtual name %q; use the base type", r.Name, typ)
			}
			if c.TypeIndex(typ) < 0 {
				return fmt.Errorf("cloud: region %s has a spot market for unknown type %q", r.Name, typ)
			}
			if m.PricePerHourMean <= 0 {
				return fmt.Errorf("cloud: region %s spot market %s has non-positive mean price %v", r.Name, typ, m.PricePerHourMean)
			}
			if m.PriceSigma < 0 {
				return fmt.Errorf("cloud: region %s spot market %s has negative price sigma %v", r.Name, typ, m.PriceSigma)
			}
			if m.RevocationsPerHour < 0 {
				return fmt.Errorf("cloud: region %s spot market %s has negative revocation hazard %v", r.Name, typ, m.RevocationsPerHour)
			}
		}
	}
	for _, t := range c.Types {
		if c.Perf.SeqIO[t.Name] == nil || c.Perf.RandIO[t.Name] == nil || c.Perf.Net[t.Name] == nil {
			return fmt.Errorf("cloud: missing performance model for %s", t.Name)
		}
	}
	if c.Perf.CrossRegionNet == nil {
		return fmt.Errorf("cloud: missing cross-region network model")
	}
	return nil
}

// USEast and APSoutheast are the two regions the follow-the-cost use case
// migrates between (§3.3: "prices of instances in the Singapore region are
// higher than those of the same type in the US East region").
const (
	USEast      = "us-east-1"
	APSoutheast = "ap-southeast-1"
)

// DefaultCatalog returns the EC2-like catalog the paper evaluates on: the
// four m1 instance types, the US East and Singapore regions (Singapore ~33%
// more expensive), and the ground-truth performance distributions of
// Table 2 (sequential I/O Gamma, random I/O Normal) plus network Normals
// whose relative variance shrinks with instance size (Figures 6-7).
func DefaultCatalog() *Catalog {
	usPrices := map[string]float64{
		"m1.small":  0.044,
		"m1.medium": 0.087,
		"m1.large":  0.175,
		"m1.xlarge": 0.350,
	}
	sgPrices := map[string]float64{}
	for k, v := range usPrices {
		sgPrices[k] = v * 1.33 // the 33% price difference cited in §6.1
	}
	cat := &Catalog{
		Types: []InstanceType{
			{Name: "m1.small", ECU: 1, MemGB: 1.7},
			{Name: "m1.medium", ECU: 2, MemGB: 3.75},
			{Name: "m1.large", ECU: 4, MemGB: 7.5},
			{Name: "m1.xlarge", ECU: 8, MemGB: 15},
		},
		Regions: []Region{
			{
				Name:          USEast,
				PricePerHour:  usPrices,
				NetPricePerGB: map[string]float64{APSoutheast: 0.09},
				Spot:          spotMarkets(usPrices, 0.30, 0.25, 0.6),
			},
			{
				Name:          APSoutheast,
				PricePerHour:  sgPrices,
				NetPricePerGB: map[string]float64{USEast: 0.12},
				// The smaller Singapore market clears closer to on-demand and
				// reclaims capacity more often.
				Spot: spotMarkets(sgPrices, 0.38, 0.30, 0.9),
			},
		},
		Perf: PerfModel{
			// Table 2 ground truth (sequential I/O in MB/s, random I/O IOPS).
			SeqIO: map[string]dist.Dist{
				"m1.small":  dist.NewGamma(129.3, 0.79),
				"m1.medium": dist.NewGamma(127.1, 0.80),
				"m1.large":  dist.NewGamma(376.6, 0.28),
				"m1.xlarge": dist.NewGamma(408.1, 0.26),
			},
			RandIO: map[string]dist.Dist{
				"m1.small":  dist.NewNormal(150.3, 50.0),
				"m1.medium": dist.NewNormal(128.9, 8.4),
				"m1.large":  dist.NewNormal(172.9, 34.8),
				"m1.xlarge": dist.NewNormal(1034.0, 146.4),
			},
			// Network bandwidth per endpoint type, MB/s. Larger instances get
			// faster, more stable networking (Fig. 7: m1.medium varies far
			// more than m1.large; Fig. 6: m1.medium variance up to ~50%).
			Net: map[string]dist.Dist{
				"m1.small":  dist.NewNormal(55, 11),
				"m1.medium": dist.NewNormal(75, 13),
				"m1.large":  dist.NewNormal(100, 6),
				"m1.xlarge": dist.NewNormal(120, 5),
			},
			CrossRegionNet: dist.NewNormal(25, 6),
		},
	}
	return cat
}

// spotMarkets derives one spot market per on-demand offering: the mean
// clearing price is frac of the on-demand price, with the given relative
// sigma and revocation hazard shared across types.
func spotMarkets(onDemand map[string]float64, frac, sigma, lambda float64) map[string]SpotMarket {
	m := make(map[string]SpotMarket, len(onDemand))
	for typ, p := range onDemand {
		m[typ] = SpotMarket{
			PricePerHourMean:   p * frac,
			PriceSigma:         sigma,
			RevocationsPerHour: lambda,
		}
	}
	return m
}

// LinkDist returns the effective bandwidth distribution between two instance
// types: the weaker endpoint bounds the link, matching the paper's
// measurement that an m1.medium↔m1.large link behaves like the m1.medium
// endpoint (Fig. 7b).
func (c *Catalog) LinkDist(typeA, typeB string) (dist.Dist, error) {
	a, ok := c.Perf.Net[typeA]
	if !ok {
		return nil, fmt.Errorf("cloud: no network model for %q", typeA)
	}
	b, ok := c.Perf.Net[typeB]
	if !ok {
		return nil, fmt.Errorf("cloud: no network model for %q", typeB)
	}
	if a.Mean() <= b.Mean() {
		return a, nil
	}
	return b, nil
}

// Metadata is the calibrated-performance store: discretized histograms per
// instance type and metric, which the probabilistic IR samples from. It is
// the product of the calibration pipeline (package calib) and the input to
// import(cloud).
type Metadata struct {
	SeqIO          map[string]*dist.Histogram
	RandIO         map[string]*dist.Histogram
	Net            map[string]*dist.Histogram
	CrossRegionNet *dist.Histogram
}

// NewMetadata returns an empty store.
func NewMetadata() *Metadata {
	return &Metadata{
		SeqIO:  map[string]*dist.Histogram{},
		RandIO: map[string]*dist.Histogram{},
		Net:    map[string]*dist.Histogram{},
	}
}

// MetadataFromTruth discretizes the catalog's ground-truth distributions
// into a metadata store with the given number of histogram bins. It is the
// shortcut the tests and experiments use in place of running the full
// calibration micro-benchmarks (package calib produces the same structure
// from measurements). The bandwidths a task time divides by (sequential
// I/O, network, cross-region network) are binned over their positive draws
// only: a normal truth can draw a non-positive rate, which no transfer can
// run at and whose bin the estimator rejects.
func MetadataFromTruth(cat *Catalog, bins, samples int, rng *rand.Rand) (*Metadata, error) {
	md := NewMetadata()
	for _, t := range cat.Types {
		h, err := discretizePositive(cat.Perf.SeqIO[t.Name], bins, samples, rng)
		if err != nil {
			return nil, fmt.Errorf("cloud: seqio %s: %w", t.Name, err)
		}
		md.SeqIO[t.Name] = h
		if h, err = dist.Discretize(cat.Perf.RandIO[t.Name], bins, samples, rng); err != nil {
			return nil, fmt.Errorf("cloud: randio %s: %w", t.Name, err)
		}
		md.RandIO[t.Name] = h
		if h, err = discretizePositive(cat.Perf.Net[t.Name], bins, samples, rng); err != nil {
			return nil, fmt.Errorf("cloud: net %s: %w", t.Name, err)
		}
		md.Net[t.Name] = h
	}
	h, err := discretizePositive(cat.Perf.CrossRegionNet, bins, samples, rng)
	if err != nil {
		return nil, fmt.Errorf("cloud: cross-region net: %w", err)
	}
	md.CrossRegionNet = h
	return md, nil
}

// discretizePositive is dist.Discretize over the positive draws of d. It
// still draws exactly samples values, so the rng stream is the same, and
// equals dist.Discretize whenever every draw is positive.
func discretizePositive(d dist.Dist, bins, samples int, rng *rand.Rand) (*dist.Histogram, error) {
	xs := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		if x := d.Sample(rng); x > 0 {
			xs = append(xs, x)
		}
	}
	return dist.FromSamples(xs, bins)
}

// Validate checks the store covers every type in the catalog.
func (m *Metadata) Validate(cat *Catalog) error {
	for _, t := range cat.Types {
		if m.SeqIO[t.Name] == nil {
			return fmt.Errorf("cloud: metadata missing seq I/O for %s", t.Name)
		}
		if m.RandIO[t.Name] == nil {
			return fmt.Errorf("cloud: metadata missing rand I/O for %s", t.Name)
		}
		if m.Net[t.Name] == nil {
			return fmt.Errorf("cloud: metadata missing network for %s", t.Name)
		}
	}
	if m.CrossRegionNet == nil {
		return fmt.Errorf("cloud: metadata missing cross-region network")
	}
	return nil
}
