package probir

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"deco/internal/dag"
)

// This file implements incremental (delta) state evaluation. Under the CRN
// contract every state in a search shares one duration matrix keyed by
// (task, type, iteration), so when a neighbor differs from its parent by a
// transformation that reassigns a few tasks, the parent's per-(task, world)
// finish times remain valid for every task whose inputs did not change. The
// delta kernel re-runs the longest-path recurrence only over the dirty cone
// — the reassigned tasks plus their topological descendants
// (dag.Flat.Cone) — and within the cone skips any task none of whose
// parents actually changed value in the chunk's worlds (value-change
// propagation over the child CSR), copying the parent's finish times for
// it instead. The walk is task-major: a recomputed task runs across the
// whole chunk with its parent list read once. Recomputed tasks read
// bitwise-identical inputs to a full evaluation, and skipped tasks provably
// kept their parent values, so the resulting makespan is bit-identical to
// the full DP; the max over tasks is order-independent. Cost figures are
// recomputed in full, in the same index order as the full path, because
// float summation order is observable. Delta is therefore a wall-clock
// optimization only — never a semantics change.

// The structural fallback is a work-estimate model, in DP work units (one
// unit ≈ one task step of the longest-path recurrence: an edge scan plus a
// duration-row gather). Per world, delta evaluation pays a finish copy of
// the whole DAG (deltaCopyUnit units per task — a contiguous memmove element
// is far cheaper than a DP step — made by the kernel for skipped cone tasks
// and by materialize for the rest) plus the cone's recomputation (cone
// tasks + entering edges); full evaluation pays the whole DAG's DP (tasks +
// edges).
// Delta is declined only when the estimated delta work reaches the full
// work, so Montage-scale group cones (~58% of the DAG, where the old flat
// 0.75 cone-fraction threshold was already borderline and per-executable
// transforms mostly fell back) stay on the delta path as long as the copy
// overhead leaves real savings.
const deltaCopyUnit = 0.25

// deltaWorthIt is the work-estimate model: true when evaluating a cone of
// coneTasks tasks and coneEdges entering edges incrementally beats the full
// DP over nTasks tasks and nEdges edges.
func deltaWorthIt(nTasks, nEdges, coneTasks, coneEdges int) bool {
	est := deltaCopyUnit*float64(nTasks) + float64(coneTasks+coneEdges)
	return est < float64(nTasks+nEdges)
}

// ConePlan is one dirty set's cone extraction, hoisted out of kernel
// construction so it can be shared: sibling children of one parent that
// change the same task group (per-executable transforms) — and children of
// later parents with the same dirty set — reuse one plan instead of
// re-extracting and copying the cone per child. A plan is immutable after
// PlanCone returns and safe for concurrent kernels to read.
type ConePlan struct {
	n         int
	cone      []int32 // cone positions into flat.Order, ascending
	edges     int     // parent edges entering cone members
	dirtyMask []bool  // per task: assignment differs from the parent's
	inCone    []bool  // per task: a member of the cone
	lastDirty int     // index into cone of the last dirty task
	delta     bool    // work model: delta evaluation beats the full DP
}

// Delta reports whether the work-estimate model chose delta evaluation for
// this cone; false means callers should evaluate fully (the plan is still a
// valid description of the cone).
func (cp *ConePlan) Delta() bool { return cp.delta }

// Snapshot holds one state's per-world finish times, task-major —
// finish[task*worlds+w] — plus each world's makespan and argmax task, so a
// chunk of consecutive worlds reads and writes one contiguous run per task.
// A snapshot is written by a capturing or delta kernel as its worlds run
// (disjoint worlds per call, so device threads never contend) and read as
// the parent of later delta kernels. Snapshot arenas are recycled through
// one process-wide, byte-bounded freelist: callers return them via
// ReleaseSnapshot when evicted from their snapshot store or when the search
// that held them ends.
type Snapshot struct {
	n      int
	worlds int
	base   int64 // CRN base seed the finish times were computed under
	finish []float64
	ms     []float64
	amax   []int32

	// from, when set, is the snapshot a delta kernel computed this one
	// from: the rows outside its cone (inCone false) still equal from's and
	// are copied by materialize, the first time this snapshot parents a
	// delta kernel. pins counts the snapshots whose uncopied rows live here;
	// a pinned snapshot released meanwhile (freed) returns to the freelist
	// at its last unpin. Only the goroutine that owns the snapshots (the
	// search building kernels) touches these fields.
	from   *Snapshot
	inCone []bool
	pins   int
	freed  bool
}

// materialize copies the rows a delta kernel left in the snapshot it was
// computed from, making this snapshot complete on its own.
func (s *Snapshot) materialize() {
	if s.from == nil {
		return
	}
	W := s.worlds
	for t, in := range s.inCone {
		if !in {
			copy(s.finish[t*W:(t+1)*W], s.from.finish[t*W:(t+1)*W])
		}
	}
	s.from.unpin()
	s.from, s.inCone = nil, nil
}

// detach drops the snapshot's link to the one it was computed from without
// copying: its rows are about to be rewritten or discarded.
func (s *Snapshot) detach() {
	if s.from != nil {
		s.from.unpin()
		s.from, s.inCone = nil, nil
	}
}

// unpin drops one dependent's hold on the snapshot, recycling it if it was
// released while held.
func (s *Snapshot) unpin() {
	s.pins--
	if s.pins == 0 && s.freed {
		s.freed = false
		recycle(s)
	}
}

// Bytes reports the snapshot's memory, for store budgeting.
func (s *Snapshot) Bytes() int64 {
	return int64(len(s.finish))*8 + int64(len(s.ms))*8 + int64(len(s.amax))*4
}

// store records the makespan and argmax task of worlds [lo, lo+len(ms));
// the kernels write finish times into the snapshot as they compute them.
func (s *Snapshot) store(lo int, ms []float64, amax []int32) {
	copy(s.ms[lo:], ms)
	copy(s.amax[lo:], amax)
}

// needsMSSampling reports whether evaluation samples per-world makespans —
// the precondition for finish-time snapshots to exist at all.
func (n *Native) needsMSSampling() bool {
	if n.Goal == GoalMakespan {
		return true
	}
	for _, c := range n.Constraints {
		if c.Kind == "deadline" {
			return true
		}
	}
	return false
}

// snapPoolBytes bounds the arena capacity the snapshot freelist retains. A
// search's store drains into the freelist when it ends, so the next search
// — on any Native, of any size its arenas fit — builds its snapshots from
// recycled arenas instead of allocating and zeroing them. The bound trades
// latency against peak RSS: whatever the freelist holds stays in the GC's
// live heap between searches and raises the heap goal of the whole process
// with it.
const snapPoolBytes = 20 << 20

// snapPool is the process-wide snapshot freelist: arenas in release order,
// most recent last, and the capacity bytes they retain. fresh counts the
// arenas NewSnapshot had to allocate because none on the list fit.
var snapPool struct {
	mu    sync.Mutex
	bytes int64
	free  []*Snapshot
	fresh int64
}

// capBytes reports the memory the snapshot's arena holds, which a recycled
// arena keeps whatever shape it is resliced to.
func (s *Snapshot) capBytes() int64 {
	return int64(cap(s.finish))*8 + int64(cap(s.ms))*8 + int64(cap(s.amax))*4
}

// NewSnapshot returns a snapshot sized for this evaluator, or nil when
// evaluation involves no per-world finish times (nothing to reuse). It
// reslices the smallest pooled arena whose capacity fits (the most recently
// released among equals), so arenas left by a search over a larger workflow
// or more worlds serve any smaller one; only when none fits is a fresh arena
// allocated. The returned snapshot's contents are undefined until a
// capturing kernel has run.
func (n *Native) NewSnapshot() *Snapshot {
	if !n.needsMSSampling() {
		return nil
	}
	nt, worlds := n.W.Len(), n.Iters
	snapPool.mu.Lock()
	best := -1
	for i := len(snapPool.free) - 1; i >= 0; i-- {
		a := snapPool.free[i]
		if cap(a.finish) < nt*worlds || cap(a.ms) < worlds || cap(a.amax) < worlds {
			continue
		}
		if best < 0 || cap(a.finish) < cap(snapPool.free[best].finish) {
			best = i
		}
		if cap(a.finish) == nt*worlds {
			break // no arena fits closer
		}
	}
	var s *Snapshot
	if best >= 0 {
		s = snapPool.free[best]
		snapPool.bytes -= s.capBytes()
		snapPool.free = slices.Delete(snapPool.free, best, best+1)
	} else {
		snapPool.fresh++
	}
	snapPool.mu.Unlock()
	if s == nil {
		return &Snapshot{n: nt, worlds: worlds, finish: make([]float64, nt*worlds), ms: make([]float64, worlds), amax: make([]int32, worlds)}
	}
	s.n, s.worlds = nt, worlds
	s.finish, s.ms, s.amax = s.finish[:nt*worlds], s.ms[:worlds], s.amax[:worlds]
	return s
}

// ReleaseSnapshot returns a snapshot's arena to the freelist. A snapshot
// that still holds rows of unmaterialized delta children goes back when the
// last of them lets go. The caller must hold no kernel built against it.
func (n *Native) ReleaseSnapshot(s *Snapshot) {
	if s == nil {
		return
	}
	s.detach()
	if s.pins > 0 {
		s.freed = true
		return
	}
	recycle(s)
}

// recycle puts a snapshot's arena on the freelist, handing the oldest
// arenas to the GC while the list holds more than snapPoolBytes of
// capacity, so the list turns over to the sizes in current use. An arena
// larger than the whole bound goes straight to the GC.
func recycle(s *Snapshot) {
	b := s.capBytes()
	if b > snapPoolBytes {
		return
	}
	snapPool.mu.Lock()
	defer snapPool.mu.Unlock()
	snapPool.free = append(snapPool.free, s)
	snapPool.bytes += b
	drop := 0
	for snapPool.bytes > snapPoolBytes {
		snapPool.bytes -= snapPool.free[drop].capBytes()
		drop++
	}
	snapPool.free = slices.Delete(snapPool.free, 0, drop)
}

// CRNKernelSnap is CRNKernel, additionally recording every world's finish
// times into snap (which must come from NewSnapshot; nil degrades to
// CRNKernel). The snapshot is valid once the kernel has run all worlds.
func (n *Native) CRNKernelSnap(ctx context.Context, config []int, base int64, snap *Snapshot) (WorldKernel, error) {
	k, err := n.newCRNKernel(ctx, config, base)
	if err != nil {
		return nil, err
	}
	if snap != nil && k.needMS {
		if snap.n != n.W.Len() || snap.worlds != n.Iters {
			return nil, fmt.Errorf("probir: snapshot shape (%d tasks, %d worlds), want (%d, %d)",
				snap.n, snap.worlds, n.W.Len(), n.Iters)
		}
		snap.detach()
		snap.base = base
		k.capture = snap
	}
	return k, nil
}

// PlanCone extracts the dirty cone of one changed-task set into a shareable,
// immutable ConePlan: the cone positions, the per-task dirty mask, the last
// dirty cone index, and the work-estimate verdict. The caller owns sharing:
// one plan per distinct dirty set serves every child kernel that changes
// exactly those tasks, across siblings and across parents (the cone depends
// on the DAG and the dirty set only, never on the configurations).
func (n *Native) PlanCone(dirty []int32) (*ConePlan, error) {
	nt := n.W.Len()
	if len(dirty) == 0 {
		return nil, fmt.Errorf("probir: empty dirty set")
	}
	for _, d := range dirty {
		if d < 0 || int(d) >= nt {
			return nil, fmt.Errorf("probir: dirty task %d out of range", d)
		}
	}
	f := n.flat
	sc := new(dag.ConeScratch)
	cone, edges := f.Cone(dirty, sc)
	cp := &ConePlan{
		n:         nt,
		cone:      append([]int32(nil), cone...),
		edges:     edges,
		dirtyMask: make([]bool, nt),
		inCone:    make([]bool, nt),
		delta:     deltaWorthIt(nt, len(f.Parents), len(cone), edges),
	}
	for _, d := range dirty {
		cp.dirtyMask[d] = true
	}
	for ci, kpos := range cp.cone {
		cp.inCone[f.Order[kpos]] = true
		if cp.dirtyMask[f.Order[kpos]] {
			cp.lastDirty = ci
		}
	}
	return cp, nil
}

// CRNDeltaKernelPlanned builds a kernel that evaluates config by reusing the
// parent snapshot, recomputing only the plan's cone, and capturing the
// result into snap so it can parent further deltas. The kernel borrows the
// plan's cone and dirty mask (read-only), so building a sibling's kernel
// allocates nothing cone-related. Returns (nil, nil) when delta does not
// apply — the plan's work model declined, there is no parent snapshot, or
// the snapshot shapes/base do not line up — and the caller must then
// evaluate fully. The plan must come from PlanCone over exactly the tasks on
// which config and the parent's configuration differ.
func (n *Native) CRNDeltaKernelPlanned(ctx context.Context, config []int, base int64, plan *ConePlan, parent, snap *Snapshot) (WorldKernel, error) {
	if plan == nil || !plan.delta || parent == nil || snap == nil || !n.needsMSSampling() {
		return nil, nil
	}
	nt := n.W.Len()
	if plan.n != nt {
		return nil, fmt.Errorf("probir: cone plan for %d tasks, want %d", plan.n, nt)
	}
	if parent.base != base || parent.n != nt || parent.worlds != n.Iters {
		return nil, nil
	}
	if snap.n != nt || snap.worlds != n.Iters {
		return nil, fmt.Errorf("probir: snapshot shape (%d tasks, %d worlds), want (%d, %d)",
			snap.n, snap.worlds, nt, n.Iters)
	}
	k, err := n.newCRNKernel(ctx, config, base)
	if err != nil {
		return nil, err
	}
	if !k.needMS {
		// Nothing to delta (no makespan figures); run it as a plain kernel.
		return k, nil
	}
	parent.materialize()
	snap.detach()
	snap.base = base
	snap.from, snap.inCone = parent, plan.inCone
	parent.pins++
	k.capture = snap
	k.parent = parent
	k.cone = plan.cone
	k.dirtyMask = plan.dirtyMask
	k.inCone = plan.inCone
	k.lastDirty = plan.lastDirty
	return k, nil
}

// deltaRows is the per-world change bookkeeping of one delta chunk: the
// largest changed finish and its task, whether the parent's argmax task
// moved, and that argmax.
type deltaRows struct {
	chMax        []float64
	chArg, pAmax []int32
	amaxHit      []bool
}

// settle notes the worlds of task ti's recomputed chunk run dst that moved
// from the parent's run prev, reporting whether any did. A NaN finish
// counts as moved but never enters the changed maximum, as the makespan
// fold never takes one.
func (d *deltaRows) settle(dst, prev []float64, ti int32) bool {
	moved := false
	for r, end := range dst {
		if end == prev[r] {
			continue
		}
		moved = true
		if end == end && (d.chArg[r] < 0 || end > d.chMax[r]) {
			d.chMax[r] = end
			d.chArg[r] = ti
		}
		if ti == d.pAmax[r] {
			d.amaxHit[r] = true
		}
	}
	return moved
}

// differs reports whether any world of a recomputed chunk run moved from
// the parent's.
func differs(dst, prev []float64) bool {
	for r, end := range dst {
		if end != prev[r] {
			return true
		}
	}
	return false
}

// deltaMS computes the chunk's makespans incrementally: walk the cone in
// topological order recomputing only the tasks that are dirty or have a
// parent whose finish changed in some world of the chunk (copying the
// parent's finishes for the rest), and derive each world's makespan in
// O(1) from the parent's (makespan, argmax) unless the argmax task itself
// changed. A recomputed task runs across the whole chunk with its parent
// list read once, straight into the child snapshot's row, and only worlds
// whose value actually moved count as changed. While every duration is
// non-negative the makespan is a max over the sinks alone (as in fullMS),
// so only a sink's moved worlds enter the makespan bookkeeping; a non-sink
// just reports whether it moved. Touch marks are per task and
// epoch-stamped (no clearing per call), and the walk stops as soon as no
// touched task remains ahead and every dirty task has been visited — past
// that point every world provably keeps its parent values. All comparisons
// are bitwise, so each world's result is exactly the full DP's.
func (k *nativeKernel) deltaMS(lo, m int, bs *blockScratch) {
	f := k.n.flat
	n0, hi := f.Len(), lo+m
	par, snap := k.parent, k.capture
	W := snap.worlds
	sf, pf := snap.finish, par.finish
	negative := k.prog.negative
	// src is the chunk's run of the current finish row of task t: the child
	// snapshot's for a cone task, the parent's for the rest (they never
	// change). Each cone task's chunk worlds are written as the walk reaches
	// it — recomputed, or copied from the parent when skipped — so a cone
	// row is current before any child reads it. The rows outside the cone
	// are left to Snapshot.materialize, so a state that never parents
	// another never pays for them.
	src := func(t int32) []float64 {
		if k.inCone[t] {
			return sf[int(t)*W+lo : int(t)*W+hi]
		}
		return pf[int(t)*W+lo : int(t)*W+hi]
	}
	keep := func(t int32) {
		copy(sf[int(t)*W+lo:int(t)*W+hi], pf[int(t)*W+lo:int(t)*W+hi])
	}
	// touched: a parent's finish moved in some world of the chunk.
	epoch := bs.marks.next(n0)
	touched := bs.marks.marks[:n0]

	dr := deltaRows{chMax: bs.chMax[:m], chArg: bs.chArg[:m], amaxHit: bs.amaxHit[:m], pAmax: bs.amax[:m]}
	copy(dr.pAmax, par.amax[lo:hi])
	for r := range m {
		dr.chArg[r] = -1
		dr.amaxHit[r] = false
	}
	pending := 0 // touched tasks not yet visited; all lie ahead in the cone
	for ci, kpos := range k.cone {
		ti := f.Order[kpos]
		if pending == 0 && ci > k.lastDirty {
			for _, kp := range k.cone[ci:] {
				keep(f.Order[kp])
			}
			break
		}
		if touched[ti] == epoch {
			pending--
		} else if !k.dirtyMask[ti] {
			keep(ti)
			continue
		}
		// The task's new finish in each chunk world: max(0, parents) +
		// duration, the parents folded in CSR order with strict >, as a
		// lone world folds them. No parent is the task itself, so its row
		// is free to receive the result.
		dst, prev := sf[int(ti)*W+lo:int(ti)*W+hi], pf[int(ti)*W+lo:int(ti)*W+hi]
		clear(dst)
		for _, p := range f.Parents[f.ParentStart[kpos]:f.ParentStart[kpos+1]] {
			for r, v := range src(p) {
				if v > dst[r] {
					dst[r] = v
				}
			}
		}
		for r, d := range k.row(ti)[lo:hi] {
			dst[r] += d
		}
		children := f.Children[f.ChildStart[ti]:f.ChildStart[ti+1]]
		var moved bool
		if negative || len(children) == 0 {
			moved = dr.settle(dst, prev, ti)
		} else {
			moved = differs(dst, prev)
		}
		if moved {
			for _, c := range children {
				if touched[c] != epoch {
					touched[c] = epoch
					pending++
				}
			}
		}
	}

	chMax, chArg, amaxHit := dr.chMax, dr.chArg, dr.amaxHit
	ms, amax := bs.ms[:m], dr.pAmax
	pms := par.ms[lo:hi]
	rescan := bs.rescan[:0]
	for r := range m {
		switch {
		case amaxHit[r] && chArg[r] >= 0 && chMax[r] >= pms[r]:
			// Every unchanged task still sits at its parent value, all of
			// which are <= the parent makespan, so the changed maximum wins
			// outright — no rescan needed.
			ms[r], amax[r] = chMax[r], chArg[r]
		case amaxHit[r]:
			// The task that attained the parent's makespan dropped below it;
			// the world's finish times are rescanned below.
			ms[r], amax[r] = 0, -1
			rescan = append(rescan, int32(r))
		default:
			// The parent's maximum still stands; only a changed value can
			// beat it.
			ms[r] = pms[r]
			if chArg[r] >= 0 && chMax[r] > ms[r] {
				ms[r], amax[r] = chMax[r], chArg[r]
			}
		}
	}
	// Rescan task-major, each world visiting its tasks in index order: only
	// the sinks while every duration is non-negative, else every task.
	visit := func(t int32) {
		from := src(t)
		for _, r := range rescan {
			if v := from[r]; v > ms[r] {
				ms[r], amax[r] = v, t
			}
		}
	}
	switch {
	case len(rescan) == 0:
	case negative:
		for t := 0; t < n0; t++ {
			visit(int32(t))
		}
	default:
		for _, t := range f.Sinks {
			visit(t)
		}
	}
	snap.store(lo, ms, amax)
}
