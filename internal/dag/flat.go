package dag

// Flat is the compiled, index-based form of a workflow: the topological
// order and the parent adjacency lowered to dense []int32 arrays (CSR
// layout), so longest-path dynamic programs run over preallocated scratch
// with no map operations or per-call allocations — the per-world hot loop
// of the Monte-Carlo evaluation core. A Flat is immutable after
// construction and safe for concurrent use.
type Flat struct {
	// IDs are the task IDs in Workflow.Tasks order; position i in every
	// duration/finish slice refers to IDs[i].
	IDs []string
	// Order is a topological order of task indices (into IDs).
	Order []int32
	// ParentStart/Parents are the parent adjacency in CSR form, aligned
	// with Order: the parents of the k-th task in topological order are
	// Parents[ParentStart[k]:ParentStart[k+1]] (task indices).
	ParentStart []int32
	Parents     []int32
	// ChildStart/Children are the child adjacency in CSR form, indexed by
	// task (not topological position): the children of task i are
	// Children[ChildStart[i]:ChildStart[i+1]] (task indices). Delta
	// evaluation uses it to push finish-time changes forward.
	ChildStart []int32
	Children   []int32
	// Sinks lists the tasks without children, ascending. With non-negative
	// durations every finish time is at most some sink's, so a makespan is
	// a max over the sinks alone.
	Sinks []int32
}

// Flatten compiles the workflow into its flat form, cached until the next
// AddTask/AddEdge. It returns an error if the graph has a cycle.
func (w *Workflow) Flatten() (*Flat, error) {
	if f := w.flat.Load(); f != nil {
		return f, nil
	}
	w.fillMu.Lock()
	defer w.fillMu.Unlock()
	if f := w.flat.Load(); f != nil {
		return f, nil
	}
	order, err := w.topoLocked()
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(w.Tasks))
	f := &Flat{
		IDs:         make([]string, len(w.Tasks)),
		Order:       make([]int32, len(order)),
		ParentStart: make([]int32, len(order)+1),
	}
	for i, t := range w.Tasks {
		idx[t.ID] = i
		f.IDs[i] = t.ID
	}
	nEdges := 0
	for _, ps := range w.parents {
		nEdges += len(ps)
	}
	f.Parents = make([]int32, 0, nEdges)
	for k, id := range order {
		f.Order[k] = int32(idx[id])
		f.ParentStart[k] = int32(len(f.Parents))
		for _, p := range w.parents[id] {
			f.Parents = append(f.Parents, int32(idx[p]))
		}
	}
	f.ParentStart[len(order)] = int32(len(f.Parents))
	// Child CSR: counting sort of the parent arrays, so Children[i] lists
	// every task that names i as a parent.
	f.ChildStart = make([]int32, len(order)+1)
	for _, p := range f.Parents {
		f.ChildStart[p+1]++
	}
	for i := 0; i < len(order); i++ {
		f.ChildStart[i+1] += f.ChildStart[i]
	}
	f.Children = make([]int32, len(f.Parents))
	fill := append([]int32(nil), f.ChildStart[:len(order)]...)
	for k := range f.Order {
		ti := f.Order[k]
		for _, p := range f.Parents[f.ParentStart[k]:f.ParentStart[k+1]] {
			f.Children[fill[p]] = ti
			fill[p]++
		}
	}
	for i := 0; i < len(order); i++ {
		if f.ChildStart[i] == f.ChildStart[i+1] {
			f.Sinks = append(f.Sinks, int32(i))
		}
	}
	w.flat.Store(f)
	return f, nil
}

// ConeScratch holds the reusable buffers of Flat.Cone so repeated cone
// computations over one workflow allocate nothing. The zero value is ready to
// use; a scratch must not be shared between concurrent Cone calls.
type ConeScratch struct {
	mark []bool
	cone []int32
}

// Cone computes the dirty cone of a set of task indices: the dirty tasks plus
// every topological descendant — exactly the tasks whose finish times can
// change when the dirty tasks' durations change. It returns the cone as
// positions into Order, ascending, so callers can recompute finish times in
// one forward pass, plus the total number of parent edges entering cone
// members (the recomputation cost of the cone in DP edge-scan units). The
// returned slice aliases the scratch and is valid until the next Cone call
// with the same scratch.
func (f *Flat) Cone(dirty []int32, sc *ConeScratch) ([]int32, int) {
	n := f.Len()
	if cap(sc.mark) < n {
		sc.mark = make([]bool, n)
	}
	mark := sc.mark[:n]
	cone := sc.cone[:0]
	for _, d := range dirty {
		mark[d] = true
	}
	edges := 0
	for k, ti := range f.Order {
		ps, pe := f.ParentStart[k], f.ParentStart[k+1]
		in := mark[ti]
		if !in {
			for _, p := range f.Parents[ps:pe] {
				if mark[p] {
					in = true
					break
				}
			}
			if !in {
				continue
			}
			mark[ti] = true
		}
		cone = append(cone, int32(k))
		edges += int(pe - ps)
	}
	// Reset the marks (dirty tasks are cone members, so clearing the cone
	// clears everything).
	for _, k := range cone {
		mark[f.Order[k]] = false
	}
	sc.cone = cone
	return cone, edges
}

// Len is the number of tasks.
func (f *Flat) Len() int { return len(f.IDs) }

// Makespan runs the longest-path dynamic program over one world's task
// durations: duration[i] is task i's duration (IDs order), finish is
// caller-provided scratch of the same length that receives every task's end
// time. Neither slice is retained; the caller may pool the scratch. This is
// the allocation-free core behind Workflow.Makespan.
func (f *Flat) Makespan(duration, finish []float64) float64 {
	makespan := 0.0
	for k, ti := range f.Order {
		start := 0.0
		for _, p := range f.Parents[f.ParentStart[k]:f.ParentStart[k+1]] {
			if fp := finish[p]; fp > start {
				start = fp
			}
		}
		end := start + duration[ti]
		finish[ti] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}
