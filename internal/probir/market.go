package probir

import (
	"fmt"
	"math"
	"math/rand"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/wlog"
)

// This file adds market semantics to the CRN evaluation core: a table column
// may be a spot offering, whose per-world cost is a random variable driven by
// a clearing-price draw and a Poisson revocation hazard instead of the
// deterministic hourly price. All market randomness is drawn at row-fill time
// from the same per-(task, column) CRN stream as the duration draws, so cost
// and makespan stay paired world by world and every determinism contract
// built on the duration matrix — decisive-world ordering, adaptive stopping,
// the eval cache — composes unchanged.

// MarketSpec describes the pricing market of one table column. The zero
// value is the degenerate on-demand market: deterministic price, no
// revocations.
type MarketSpec struct {
	// Spot marks the column as a preemptible offering.
	Spot bool
	// PriceMean and PriceSigma define the clearing-price process: a world's
	// hourly price is PriceMean·(1+PriceSigma·z) with z standard normal,
	// floored at cloud.SpotPriceFloorFrac of the mean.
	PriceMean  float64
	PriceSigma float64
	// RevocationsPerHour is the Poisson revocation hazard λ: the time until
	// the instance is reclaimed is Exponential(λ) hours from acquisition.
	RevocationsPerHour float64
	// OnDemandUSD is the hourly on-demand price of the underlying type — the
	// rate the full rerun pays after a revocation.
	OnDemandUSD float64
}

// NewNativeMarkets builds a native evaluator whose table columns carry
// market semantics. markets must be nil (all on-demand — equivalent to
// NewNative) or one entry per table column. With any spot column present,
// the cost of EVERY state becomes a per-world sampled figure: GoalCost turns
// into expected-cost-under-revocation, and percentile budget constraints
// bound cost-at-risk. Mean-notion budgets keep comparing the deterministic
// Eq. 1-2 anchor (mean durations at mean prices, no revocation reruns), so
// their verdict stays world-free.
func NewNativeMarkets(w *dag.Workflow, tbl *estimate.Table, prices []float64, markets []MarketSpec, goal GoalKind, cons []wlog.Constraint, iters int) (*Native, error) {
	n, err := NewNative(w, tbl, prices, goal, cons, iters)
	if err != nil {
		return nil, err
	}
	if markets == nil {
		return n, nil
	}
	if len(markets) != len(tbl.Types) {
		return nil, fmt.Errorf("probir: %d markets for %d types", len(markets), len(tbl.Types))
	}
	for j, m := range markets {
		if !m.Spot {
			continue
		}
		if m.PriceMean <= 0 {
			return nil, fmt.Errorf("probir: spot column %s has non-positive mean price %v", tbl.Types[j], m.PriceMean)
		}
		if m.PriceSigma < 0 {
			return nil, fmt.Errorf("probir: spot column %s has negative price sigma %v", tbl.Types[j], m.PriceSigma)
		}
		if m.RevocationsPerHour < 0 {
			return nil, fmt.Errorf("probir: spot column %s has negative revocation hazard %v", tbl.Types[j], m.RevocationsPerHour)
		}
		if m.OnDemandUSD <= 0 {
			return nil, fmt.Errorf("probir: spot column %s has non-positive on-demand rerun price %v", tbl.Types[j], m.OnDemandUSD)
		}
		n.hasSpot = true
	}
	n.Markets = markets
	return n, nil
}

// HasSpotMarkets reports whether any table column is a spot offering — the
// switch that turns cost into a sampled per-world figure.
func (n *Native) HasSpotMarkets() bool { return n.hasSpot }

// fillSpotRow fills one (task, spot column) row pair: row[it] is the
// effective duration of world it, costRow[it] its realized cost. Per world
// the stream is consumed in a fixed order — duration draw(s), revocation
// uniform, price normal — so the pair is a pure function of (program
// content, base seed, row index) like every other CRN row.
//
// Revocation semantics: the instance is reclaimed T ~ Exponential(λ) hours
// after acquisition. If the task outlives T, the attempt is lost — the spot
// market bills only the used T — and the task reruns in full on on-demand
// capacity of the same type, so the effective duration is T + d and the
// cost is the spot bill for T plus the on-demand bill for d. One revocation
// per task attempt: the rerun is on-demand and cannot be reclaimed again.
func fillSpotRow(td *estimate.TimeDist, m MarketSpec, rng *rand.Rand, row, costRow []float64) {
	floor := m.PriceMean * cloud.SpotPriceFloorFrac
	for it := range row {
		d := td.Sample(rng)
		u := rng.Float64()
		z := rng.NormFloat64()
		price := m.PriceMean * (1 + m.PriceSigma*z)
		if price < floor {
			price = floor
		}
		dur, cost := d, price*d/3600
		if m.RevocationsPerHour > 0 {
			tRev := -math.Log(1-u) * 3600 / m.RevocationsPerHour
			if tRev < d {
				dur = tRev + d
				cost = price*tRev/3600 + m.OnDemandUSD*d/3600
			}
		}
		row[it] = dur
		costRow[it] = cost
	}
}
