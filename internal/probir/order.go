package probir

import (
	"context"
	"sort"
)

// This file implements decisive-world-first storage: a per-world severity
// signal computed once per (program, base seed) and used to number the
// worlds, so the adaptive evaluator, which runs worlds in ascending position,
// meets likely-violating worlds first. The solver's exact worst-case stopping
// rule bounds the final success probability over the FIXED finite world set,
// so it stays valid under any fixed numbering of that set — the numbering
// changes which prefix is seen, never the bound's soundness. Front-loading
// severe worlds means a near-boundary infeasible state meets its
// floor((1-pct)*N)+1 failing worlds in the first chunk instead of spread
// across all N.
//
// The severity signal is the critical-path length over the CRN duration
// base, summed across every uniform configuration: severity[w] is the sum
// over instance types j of the makespan of world w with every task on type
// j. Duration rows are keyed by (task, type, world), so a mixed
// configuration's makespan reads one uniform configuration's draw per task —
// a world slow across the uniform sweeps is slow under any configuration.
// The signal depends only on (program content, base seed), never on the
// search state or device, so the numbering — and with it every adaptive
// decision — is bit-identical on every device.

// sortWorlds renumbers the sampled worlds by descending severity, ties
// broken by ascending stream index, and permutes every duration and cost
// row into that numbering: afterwards position p of each row is world p.
// It stops early with ctx's error once ctx is done, leaving the rows
// partly permuted.
func (p *Program) sortWorlds(ctx context.Context) error {
	f := p.flat
	// perType[j*iters+w] is world w's makespan with every task on type j.
	perType := make([]float64, p.nTypes*p.iters)
	spread(p.nTypes, func(lo, hi int) {
		dur, finish := make([]float64, f.Len()), make([]float64, f.Len())
		for j := lo; j < hi; j++ {
			for it := 0; it < p.iters && ctx.Err() == nil; it++ {
				for i := range dur {
					dur[i] = p.row(i, j)[it]
				}
				perType[j*p.iters+it] = f.Makespan(dur, finish)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	sev := make([]float64, p.iters)
	for j := 0; j < p.nTypes; j++ {
		for it := range sev {
			sev[it] += perType[j*p.iters+it]
		}
	}
	order := make([]int, p.iters)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := sev[order[a]], sev[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	spread(len(p.rows), func(lo, hi int) {
		tmp := make([]float64, p.iters)
		permute := func(row []float64) {
			if row == nil {
				return
			}
			copy(tmp, row)
			for pos, w := range order {
				row[pos] = tmp[w]
			}
		}
		for ri := lo; ri < hi && ctx.Err() == nil; ri++ {
			permute(p.rows[ri])
			if p.costRows != nil {
				permute(p.costRows[ri])
			}
		}
	})
	return ctx.Err()
}
