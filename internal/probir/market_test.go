package probir

import (
	"context"
	"math/rand"
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wlog"
)

// marketFixture expands the diamond fixture's table with spot columns for
// m1.small and m1.xlarge and builds the matching price vector (mean clearing
// price for spot columns) and market specs from the default catalog.
func marketFixture(t testing.TB) (*dag.Workflow, *estimate.Table, []float64, []MarketSpec) {
	t.Helper()
	w, tbl, _ := fixture(t, false)
	cat := cloud.DefaultCatalog()
	us, err := cat.Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	xtbl, err := tbl.ExpandSpot([]string{"m1.small", "m1.xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	prices := make([]float64, len(xtbl.Types))
	markets := make([]MarketSpec, len(xtbl.Types))
	for j, name := range xtbl.Types {
		if cloud.IsSpotName(name) {
			m := us.Spot[cloud.BaseType(name)]
			prices[j] = m.PricePerHourMean
			markets[j] = MarketSpec{
				Spot:               true,
				PriceMean:          m.PricePerHourMean,
				PriceSigma:         m.PriceSigma,
				RevocationsPerHour: m.RevocationsPerHour,
				OnDemandUSD:        us.PricePerHour[cloud.BaseType(name)],
			}
		} else {
			prices[j] = us.PricePerHour[name]
		}
	}
	return w, xtbl, prices, markets
}

func TestNewNativeMarketsValidation(t *testing.T) {
	w, xtbl, prices, markets := marketFixture(t)
	if _, err := NewNativeMarkets(w, xtbl, prices, markets, GoalCost, nil, 50); err != nil {
		t.Fatalf("valid markets rejected: %v", err)
	}
	if _, err := NewNativeMarkets(w, xtbl, prices, markets[:2], GoalCost, nil, 50); err == nil {
		t.Error("market/type length mismatch accepted")
	}
	spotIdx := -1
	for j, m := range markets {
		if m.Spot {
			spotIdx = j
			break
		}
	}
	mutate := map[string]func(m *MarketSpec){
		"zero mean price":  func(m *MarketSpec) { m.PriceMean = 0 },
		"negative sigma":   func(m *MarketSpec) { m.PriceSigma = -0.1 },
		"negative hazard":  func(m *MarketSpec) { m.RevocationsPerHour = -1 },
		"zero rerun price": func(m *MarketSpec) { m.OnDemandUSD = 0 },
	}
	for name, mut := range mutate {
		bad := append([]MarketSpec(nil), markets...)
		mut(&bad[spotIdx])
		if _, err := NewNativeMarkets(w, xtbl, prices, bad, GoalCost, nil, 50); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestSpotObjectiveIsSampledExpectedCost: with spot markets present the cost
// goal becomes a Monte-Carlo figure (worlds run even without constraints,
// ValueFigure points at the cost column) and an all-spot plan is cheaper in
// expectation than the same plan on demand — the clearing price is a
// fraction of on-demand and revocation reruns only claw part of it back.
func TestSpotObjectiveIsSampledExpectedCost(t *testing.T) {
	w, xtbl, prices, markets := marketFixture(t)
	n, err := NewNativeMarkets(w, xtbl, prices, markets, GoalCost, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !n.HasSpotMarkets() {
		t.Fatal("HasSpotMarkets() = false")
	}
	spotSmall := -1
	for j, name := range xtbl.Types {
		if name == cloud.SpotName("m1.small") {
			spotSmall = j
		}
	}
	base := int64(42)
	k, err := n.CRNKernel(context.Background(), []int{spotSmall, spotSmall, spotSmall, spotSmall}, base)
	if err != nil {
		t.Fatal(err)
	}
	if k.Worlds() == 0 {
		t.Fatal("spot cost goal needs sampled worlds")
	}
	pk := k.(PartialKernel)
	if fig := pk.ValueFigure(); fig < 0 {
		t.Fatalf("ValueFigure() = %d, want the sampled cost column", fig)
	}
	evSpot, err := RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	evOD, err := n.EvaluateCRN([]int{0, 0, 0, 0}, base)
	if err != nil {
		t.Fatal(err)
	}
	if evSpot.Value <= 0 || evOD.Value <= 0 {
		t.Fatalf("non-positive costs: spot %v od %v", evSpot.Value, evOD.Value)
	}
	if evSpot.Value >= evOD.Value {
		t.Errorf("all-spot expected cost %v not below on-demand %v", evSpot.Value, evOD.Value)
	}
}

func TestSpotEvaluationDeterministic(t *testing.T) {
	w, xtbl, prices, markets := marketFixture(t)
	cons := []wlog.Constraint{{Kind: "deadline", Percentile: 0.9, Bound: 2000}}
	n, err := NewNativeMarkets(w, xtbl, prices, markets, GoalCost, cons, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := []int{4, 1, 5, 0} // mixed spot and on-demand columns
	base := int64(7)
	a, err := n.EvaluateCRN(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.EvaluateCRN(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Feasible != b.Feasible || a.Violation != b.Violation {
		t.Errorf("same (config, base) evaluated differently: %+v vs %+v", a, b)
	}
	for ci := range a.ConsProb {
		if a.ConsProb[ci] != b.ConsProb[ci] {
			t.Errorf("constraint %d prob %v vs %v", ci, a.ConsProb[ci], b.ConsProb[ci])
		}
	}
}

// TestNonSpotMarketsMatchPlainNative: a markets vector with no spot columns
// is semantically the plain evaluator — draws, figures, and reductions all
// bit-identical.
func TestNonSpotMarketsMatchPlainNative(t *testing.T) {
	w, xtbl, prices, _ := marketFixture(t)
	odMarkets := make([]MarketSpec, len(xtbl.Types))
	cons := []wlog.Constraint{
		{Kind: "deadline", Percentile: 0.9, Bound: 2000},
		{Kind: "budget", Percentile: 0.9, Bound: 1.0},
	}
	plain, err := NewNative(w, xtbl, prices, GoalCost, cons, 150)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := NewNativeMarkets(w, xtbl, prices, odMarkets, GoalCost, cons, 150)
	if err != nil {
		t.Fatal(err)
	}
	if marked.HasSpotMarkets() {
		t.Fatal("all-on-demand markets flagged as spot")
	}
	cfg := []int{1, 4, 2, 5}
	a, err := plain.EvaluateCRN(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marked.EvaluateCRN(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Feasible != b.Feasible || a.Violation != b.Violation {
		t.Errorf("markets-off evaluator diverged: %+v vs %+v", a, b)
	}
}

// TestFillSpotRowSemantics pins the per-world revocation arithmetic on a
// deterministic-duration task.
func TestFillSpotRowSemantics(t *testing.T) {
	td := &estimate.TimeDist{CPUSeconds: 100}
	rng := rand.New(rand.NewSource(5))
	iters := 2000
	row := make([]float64, iters)
	costRow := make([]float64, iters)

	// No hazard: duration is the plain draw, cost the (floored) clearing
	// price times the duration.
	m := MarketSpec{Spot: true, PriceMean: 0.03, PriceSigma: 0.5, OnDemandUSD: 0.1}
	fillSpotRow(td, m, rng, row, costRow)
	floorCost := m.PriceMean * cloud.SpotPriceFloorFrac * 100 / 3600
	for it := range row {
		if row[it] != 100 {
			t.Fatalf("world %d: duration %v without hazard, want 100", it, row[it])
		}
		if costRow[it] < floorCost {
			t.Fatalf("world %d: cost %v below price floor %v", it, costRow[it], floorCost)
		}
	}

	// Overwhelming hazard: essentially every world is revoked, pays the
	// on-demand rerun on top of the used spot time, and runs longer than the
	// plain duration.
	m.RevocationsPerHour = 1e6
	revoked := 0
	fillSpotRow(td, m, rng, row, costRow)
	odCost := m.OnDemandUSD * 100 / 3600
	for it := range row {
		if row[it] < 100 || costRow[it] < odCost {
			t.Fatalf("world %d: dur %v cost %v below revocation floor (100, %v)", it, row[it], costRow[it], odCost)
		}
		if row[it] > 100 {
			revoked++
		}
	}
	if revoked < iters*9/10 {
		t.Errorf("only %d/%d worlds revoked under λ=1e6", revoked, iters)
	}
}

// TestMarketsFingerprintDistinct: the fingerprint must separate otherwise
// identical evaluators with different market vectors, or the cross-search
// eval cache would alias them.
func TestMarketsFingerprintDistinct(t *testing.T) {
	w, xtbl, prices, markets := marketFixture(t)
	plain, err := NewNative(w, xtbl, prices, GoalCost, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	marked, err := NewNativeMarkets(w, xtbl, prices, markets, GoalCost, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() == marked.Fingerprint() {
		t.Error("markets not part of the fingerprint")
	}
	cheap := append([]MarketSpec(nil), markets...)
	for j := range cheap {
		if cheap[j].Spot {
			cheap[j].PriceMean *= 0.5
		}
	}
	marked2, err := NewNativeMarkets(w, xtbl, prices, cheap, GoalCost, nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	if marked.Fingerprint() == marked2.Fingerprint() {
		t.Error("market prices not part of the fingerprint")
	}
}
