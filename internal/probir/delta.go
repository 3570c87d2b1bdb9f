package probir

import (
	"fmt"

	"deco/internal/dag"
)

// This file implements incremental (delta) state evaluation. Under the CRN
// contract every state in a search shares one duration matrix keyed by
// (task, type, iteration), so when a neighbor differs from its parent by a
// transformation that reassigns a few tasks, the parent's per-(task, world)
// finish times remain valid for every task whose inputs did not change. The
// delta kernel copies the parent's finish row for a world and re-runs the
// longest-path recurrence only over the dirty cone — the reassigned tasks
// plus their topological descendants (dag.Flat.Cone) — and within the cone
// skips any task none of whose parents actually changed value in that world
// (value-change propagation over the child CSR). Recomputed tasks read
// bitwise-identical inputs to a full evaluation, and skipped tasks provably
// kept their parent values, so the resulting makespan is bit-identical to
// the full DP; the max over tasks is order-independent. Cost figures are
// recomputed in full, in the same index order as the full path, because
// float summation order is observable. Delta is therefore a wall-clock
// optimization only — never a semantics change.

// The structural fallback is a work-estimate model, in DP work units (one
// unit ≈ one task step of the longest-path recurrence: an edge scan plus a
// duration-row gather). Per world, delta evaluation pays a finish-row copy of
// the whole DAG (deltaCopyUnit units per task — a contiguous memmove element
// is far cheaper than a DP step) plus the cone's recomputation (cone tasks +
// entering edges); full evaluation pays the whole DAG's DP (tasks + edges).
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
	lastDirty int     // index into cone of the last dirty task
	delta     bool    // work model: delta evaluation beats the full DP
}

// Delta reports whether the work-estimate model chose delta evaluation for
// this cone; false means callers should evaluate fully (the plan is still a
// valid description of the cone).
func (cp *ConePlan) Delta() bool { return cp.delta }

// ConeSize returns the number of tasks in the dirty cone.
func (cp *ConePlan) ConeSize() int { return len(cp.cone) }

// Snapshot holds one state's per-world finish times — finish[it*n+task] —
// plus each world's makespan and argmax task. A snapshot is written by a
// capturing or delta kernel as its worlds run (disjoint slices per world, so
// device threads never contend) and read as the parent of later delta
// kernels. Snapshots are pooled by the Native that issued them; callers
// return them via ReleaseSnapshot when evicted from their snapshot store.
type Snapshot struct {
	n      int
	worlds int
	base   int64 // CRN base seed the finish times were computed under
	finish []float64
	ms     []float64
	amax   []int32
}

// Bytes reports the snapshot's retained memory, for store budgeting.
func (s *Snapshot) Bytes() int64 {
	return int64(len(s.finish))*8 + int64(len(s.ms))*8 + int64(len(s.amax))*4
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

// NewSnapshot returns a pooled snapshot sized for this evaluator, or nil
// when evaluation involves no per-world finish times (nothing to reuse).
// The returned snapshot's contents are undefined until a capturing kernel
// has run.
func (n *Native) NewSnapshot() *Snapshot {
	if !n.needsMSSampling() {
		return nil
	}
	nt := n.W.Len()
	n.snapMu.Lock()
	for len(n.snapFree) > 0 {
		s := n.snapFree[len(n.snapFree)-1]
		n.snapFree = n.snapFree[:len(n.snapFree)-1]
		if s.n == nt && s.worlds == n.Iters {
			n.snapMu.Unlock()
			return s
		}
		// Sized for a different shape (shouldn't happen per Native); drop it.
	}
	n.snapMu.Unlock()
	return &Snapshot{
		n:      nt,
		worlds: n.Iters,
		finish: make([]float64, nt*n.Iters),
		ms:     make([]float64, n.Iters),
		amax:   make([]int32, n.Iters),
	}
}

// snapFreeCap bounds the snapshot freelist; at most this many released
// snapshots are retained for reuse (roughly one frontier batch's worth),
// anything beyond goes to the GC.
const snapFreeCap = 256

// ReleaseSnapshot returns a snapshot to the pool. The caller must hold no
// kernel built against it.
func (n *Native) ReleaseSnapshot(s *Snapshot) {
	if s == nil {
		return
	}
	n.snapMu.Lock()
	if len(n.snapFree) < snapFreeCap {
		n.snapFree = append(n.snapFree, s)
	}
	n.snapMu.Unlock()
}

// CRNKernelSnap is CRNKernel, additionally recording every world's finish
// times into snap (which must come from NewSnapshot; nil degrades to
// CRNKernel). The snapshot is valid once the kernel has run all worlds.
func (n *Native) CRNKernelSnap(config []int, base int64, snap *Snapshot) (WorldKernel, error) {
	k, err := n.newCRNKernel(config, base)
	if err != nil {
		return nil, err
	}
	if snap != nil && k.needMS {
		if snap.n != n.W.Len() || snap.worlds != n.Iters {
			return nil, fmt.Errorf("probir: snapshot shape (%d tasks, %d worlds), want (%d, %d)",
				snap.n, snap.worlds, n.W.Len(), n.Iters)
		}
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
		delta:     deltaWorthIt(nt, len(f.Parents), len(cone), edges),
	}
	for _, d := range dirty {
		cp.dirtyMask[d] = true
	}
	for ci, kpos := range cp.cone {
		if cp.dirtyMask[f.Order[kpos]] {
			cp.lastDirty = ci
		}
	}
	return cp, nil
}

// CRNDeltaKernelPlanned is CRNDeltaKernel with the cone extraction hoisted
// out: the kernel borrows the plan's cone and dirty mask (read-only) instead
// of extracting and owning copies, so building a sibling's kernel allocates
// nothing cone-related. Returns (nil, nil) when delta does not apply — the
// plan's work model declined, there is no parent snapshot, or the snapshot
// shapes/base do not line up — and the caller must then evaluate fully. The
// plan must come from PlanCone over exactly the tasks on which config and
// the parent's configuration differ.
func (n *Native) CRNDeltaKernelPlanned(config []int, base int64, plan *ConePlan, parent, snap *Snapshot) (WorldKernel, error) {
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
	k, err := n.newCRNKernel(config, base)
	if err != nil {
		return nil, err
	}
	if !k.needMS {
		// Nothing to delta (no makespan figures); run it as a plain kernel.
		return k, nil
	}
	snap.base = base
	k.capture = snap
	k.parent = parent
	k.cone = plan.cone
	k.dirtyMask = plan.dirtyMask
	k.lastDirty = plan.lastDirty
	return k, nil
}

// CRNDeltaKernel builds a kernel that evaluates config by reusing the parent
// snapshot, recomputing only the cone of the dirty tasks — the tasks whose
// (task, type) assignment differs from the parent's — and capturing the
// result into snap so it can parent further deltas. It is PlanCone +
// CRNDeltaKernelPlanned for callers without a plan cache: each call
// re-extracts the cone, where the solver shares one plan per dirty set.
// Returns (nil, nil) when delta does not apply (no parent, base mismatch, or
// cone too large): the caller must then evaluate fully.
func (n *Native) CRNDeltaKernel(config []int, base int64, dirty []int32, parent, snap *Snapshot) (WorldKernel, error) {
	if parent == nil || snap == nil || !n.needsMSSampling() {
		return nil, nil
	}
	if len(dirty) == 0 {
		// An identical configuration is not a delta; let the caller's eval
		// cache or full path handle it.
		return nil, nil
	}
	plan, err := n.PlanCone(dirty)
	if err != nil {
		return nil, err
	}
	if !plan.delta {
		return nil, nil
	}
	return n.CRNDeltaKernelPlanned(config, base, plan, parent, snap)
}

// sampleDeltaMS computes world it's makespan incrementally: copy the
// parent's finish row, walk the cone in topological order recomputing a task
// only if it is dirty or one of its parents changed value this world, push
// value changes to children through the child CSR, and derive the makespan
// in O(1) from the parent's (makespan, argmax) unless the argmax task itself
// changed. Recompute marks are epoch-stamped (no per-world clearing), and
// the walk stops as soon as no marked task remains ahead and every dirty
// task has been visited — past that point the world provably keeps its
// parent values. All comparisons are bitwise, so the result is exactly the
// full DP's.
func (k *nativeKernel) sampleDeltaMS(it int) float64 {
	f := k.n.flat
	n0 := f.Len()
	row := k.capture.finish[it*n0 : (it+1)*n0]
	copy(row, k.parent.finish[it*n0:(it+1)*n0])

	em := k.prog.flags.Get().(*epochMarks)
	epoch := em.next()
	marks := em.marks
	parentAmax := k.parent.amax[it]
	amaxChanged := false
	changedMax := 0.0
	changedArg := int32(-1)
	pending := 0 // marked tasks not yet visited; all lie ahead in the cone
	for ci, kpos := range k.cone {
		if pending == 0 && ci > k.lastDirty {
			break
		}
		ti := f.Order[kpos]
		if marks[ti] == epoch {
			pending--
		} else if !k.dirtyMask[ti] {
			continue
		}
		start := 0.0
		for _, p := range f.Parents[f.ParentStart[kpos]:f.ParentStart[kpos+1]] {
			if v := row[p]; v > start {
				start = v
			}
		}
		end := start + k.rows[ti][it]
		if end != row[ti] {
			row[ti] = end
			for _, c := range f.Children[f.ChildStart[ti]:f.ChildStart[ti+1]] {
				if marks[c] != epoch {
					marks[c] = epoch
					pending++
				}
			}
			if changedArg < 0 || end > changedMax {
				changedMax = end
				changedArg = ti
			}
			if ti == parentAmax {
				amaxChanged = true
			}
		}
	}
	k.prog.flags.Put(em)

	var ms float64
	amax := parentAmax
	if amaxChanged {
		if changedMax >= k.parent.ms[it] {
			// Every unchanged task still sits at its parent value, all of
			// which are <= the parent makespan, so the changed maximum wins
			// outright — no rescan needed.
			ms = changedMax
			amax = changedArg
		} else {
			// The task that attained the parent's makespan dropped below it;
			// rescan the contiguous finish row.
			ms = 0
			amax = -1
			for i, v := range row {
				if v > ms {
					ms = v
					amax = int32(i)
				}
			}
		}
	} else {
		// The parent's maximum still stands; only a changed value can beat it.
		ms = k.parent.ms[it]
		if changedArg >= 0 && changedMax > ms {
			ms = changedMax
			amax = changedArg
		}
	}
	k.capture.ms[it] = ms
	k.capture.amax[it] = amax
	return ms
}
