package runtime

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"

	"deco/internal/dag"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/sim"
)

// residualSpace is the incremental-replan search space: full configuration
// vectors whose start state is the *current* plan (warm start) and whose
// neighbors mutate only unstarted tasks — started work is sunk. Evaluation
// is the residual Monte-Carlo kernel, so spent cost and elapsed time are
// folded into every candidate's constraints.
type residualSpace struct {
	r         *residual
	base      []int
	unstarted []int32 // positions free to change
	numTypes  int

	fpOnce sync.Once
	fp     string
}

// Starts implements opt.Space: the running plan restricted to unfinished
// tasks — exactly where the execution currently stands.
func (s *residualSpace) Starts() []opt.State {
	return []opt.State{append(opt.State(nil), s.base...)}
}

// Neighbors implements opt.Space: promote/demote each unstarted task by one
// type, plus a global shift of all unstarted tasks (the escape move for
// uniform drift).
func (s *residualSpace) Neighbors(st opt.State) []opt.Transform {
	out := make([]opt.Transform, 0, 2*len(s.unstarted)+2)
	for k, i := range s.unstarted {
		for _, d := range [2]int{1, -1} {
			if j := st[i] + d; j >= 0 && j < s.numTypes {
				out = append(out, opt.Transform{Tasks: s.unstarted[k : k+1], Step: d})
			}
		}
	}
	for _, d := range [2]int{1, -1} {
		if tasks, _ := opt.Movable(nil, st, s.unstarted, d, s.numTypes); len(tasks) > 0 {
			out = append(out, opt.Transform{Tasks: tasks, Step: d})
		}
	}
	return out
}

// Describe implements opt.Space: the residual kernel of each state over the
// worlds of the seed, whatever the state, and the snapshot fingerprint.
func (s *residualSpace) Describe(_ context.Context, seed int64) opt.Descriptor {
	return opt.Descriptor{
		Kernel:      func(st opt.State) (probir.WorldKernel, error) { return s.r.buildKernel(st, seed) },
		Fingerprint: s.fingerprint(),
	}
}

// fingerprint is a content hash of the full residual snapshot — everything
// a state's evaluation depends on — so cache entries from different replan
// instants (different progress, drift, or accrued cost) never collide.
func (s *residualSpace) fingerprint() string {
	s.fpOnce.Do(func() {
		r := s.r
		h := sha256.New()
		io.WriteString(h, "residual;")
		io.WriteString(h, r.tbl.Fingerprint())
		var buf [8]byte
		writeF := func(xs ...float64) {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
		writeI := func(xs ...int64) {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
		}
		f := r.flat
		writeI(int64(f.Len()), int64(r.iters))
		for i, id := range f.IDs {
			io.WriteString(h, id)
			writeI(int64(r.state[i]))
			writeF(r.startAt[i], r.elapsed[i], r.finish[i])
		}
		for ki, ti := range f.Order {
			parents := f.Parents[f.ParentStart[ki]:f.ParentStart[ki+1]]
			writeI(int64(ti), int64(len(parents)))
			for _, p := range parents {
				writeI(int64(p))
			}
		}
		writeF(r.now, r.accrued, r.drift)
		writeF(r.prices...)
		writeI(int64(len(r.cons)))
		for _, c := range r.cons {
			io.WriteString(h, c.Kind)
			writeF(c.Percentile, c.Bound)
		}
		s.fp = hex.EncodeToString(h.Sum(nil))
	})
	return s.fp
}

// unstarted lists the positions of the tasks that have not started.
func (m *Monitor) unstarted() []int {
	var out []int
	for i, st := range m.res.state {
		if st == stUnstarted {
			out = append(out, i)
		}
	}
	return out
}

// replanPlacements materializes the unstarted portion of a new
// configuration into placements on fresh slots: the unstarted sub-DAG is
// consolidated (hour-packed) exactly like an initial plan, then its slots
// are offset past every slot the execution has already referenced.
func (m *Monitor) replanPlacements(config []int) (map[string]sim.Placement, error) {
	sub := dag.New(m.w.Name + "/residual")
	subIdx := m.unstarted()
	for _, i := range subIdx {
		tc := *m.w.Tasks[i]
		if err := sub.AddTask(&tc); err != nil {
			return nil, err
		}
	}
	for _, i := range subIdx {
		id := m.w.Tasks[i].ID
		for _, p := range m.w.Parents(id) {
			if sub.Task(p) != nil {
				if err := sub.AddEdge(p, id); err != nil {
					return nil, err
				}
			}
		}
	}
	subCfg := make(opt.State, 0, len(subIdx))
	for _, i := range subIdx {
		subCfg = append(subCfg, config[i])
	}
	plan, err := opt.Consolidate(sub, subCfg, m.tbl, m.region)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sim.Placement, len(plan.Place))
	maxUsed := -1
	for id, pl := range plan.Place {
		pl.Slot += m.nextSlot
		if pl.Slot-m.nextSlot > maxUsed {
			maxUsed = pl.Slot - m.nextSlot
		}
		out[id] = pl
	}
	m.nextSlot += maxUsed + 1
	return out, nil
}

// replanSearch runs the warm-started incremental search over the worlds of
// base. Revise passes the base of the risk evaluation that triggered the
// replan, so the search's start state — the current plan — evaluates
// bit-identically to that risk evaluation. Only unstarted tasks move, so
// the best state equals the current plan on every started task. The result
// is nil when every task has started.
func (m *Monitor) replanSearch(base int64) (*opt.Result, error) {
	unstarted := m.unstarted()
	if len(unstarted) == 0 {
		return nil, nil
	}
	space := &residualSpace{
		r:         m.res,
		base:      append([]int(nil), m.config...),
		unstarted: make([]int32, len(unstarted)),
		numTypes:  len(m.tbl.Types),
	}
	for k, i := range unstarted {
		space.unstarted[k] = int32(i)
	}
	sopt := opt.Options{
		Device:    m.opt.Device,
		MaxStates: m.opt.ReplanBudget,
		BeamWidth: 6,
		Patience:  6,
		Seed:      base,
		Ctx:       m.opt.Ctx,
		Cache:     m.opt.Cache,
	}
	res, err := opt.Search(space, sopt)
	if err != nil {
		return nil, fmt.Errorf("runtime: replan search: %w", err)
	}
	return res, nil
}

// replan runs the replan search over the worlds of base and, if it found a
// configuration that ranks strictly better than staying the course,
// returns the revised placements for the unstarted tasks. The search's
// incumbent is the first state evaluated at the lowest Score, and its first
// state is the current plan, valued exactly as the risk evaluation valued
// it; so the best configuration differs from the current plan only when it
// scores strictly better.
func (m *Monitor) replan(base int64) (map[string]sim.Placement, *ReplanEvent, error) {
	res, err := m.replanSearch(base)
	if err != nil || res == nil {
		return nil, nil, err
	}
	changed := map[string]string{}
	for i, j := range res.Best {
		if j != m.config[i] {
			changed[m.w.Tasks[i].ID] = m.tbl.Types[j]
		}
	}
	if len(changed) == 0 {
		return nil, nil, nil // staying the course is at least as good
	}
	newCfg := []int(res.Best)
	upd, err := m.replanPlacements(newCfg)
	if err != nil {
		return nil, nil, err
	}
	m.config = newCfg
	for id, pl := range upd {
		m.plan[id] = pl
	}
	return upd, &ReplanEvent{Changed: len(changed), Assignments: changed}, nil
}
