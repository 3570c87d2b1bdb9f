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
	hasChild := make([]bool, len(order))
	for _, p := range f.Parents {
		hasChild[p] = true
	}
	for i, c := range hasChild {
		if !c {
			f.Sinks = append(f.Sinks, int32(i))
		}
	}
	w.flat.Store(f)
	return f, nil
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
