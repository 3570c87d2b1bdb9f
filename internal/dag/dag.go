// Package dag implements the scientific-workflow model that Deco optimizes:
// tasks (the minimum execution unit, §2 of the paper), data dependencies,
// input/output files, topological ordering, and critical-path analysis.
//
// A Workflow corresponds to one DAX document. Tasks reference the files they
// consume and produce; an edge X→Y is implied whenever Y consumes a file X
// produces, or is declared explicitly via parent/child elements.
package dag

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// File is a workflow data product with a size in megabytes. File sizes drive
// the I/O and network components of the task execution-time model and the
// migration cost of follow-the-cost.
type File struct {
	Name   string
	SizeMB float64
}

// Task is the minimum execution unit of a workflow.
type Task struct {
	ID         string  // unique within a workflow, e.g. "ID01"
	Executable string  // the transformation/executable name, e.g. "mProjectPP"
	CPUSeconds float64 // CPU work on the reference (1 ECU) machine
	Inputs     []File
	Outputs    []File
}

// InputMB returns the total size of the task's input files in MB.
func (t *Task) InputMB() float64 {
	s := 0.0
	for _, f := range t.Inputs {
		s += f.SizeMB
	}
	return s
}

// OutputMB returns the total size of the task's output files in MB.
func (t *Task) OutputMB() float64 {
	s := 0.0
	for _, f := range t.Outputs {
		s += f.SizeMB
	}
	return s
}

// Workflow is a directed acyclic graph of tasks.
type Workflow struct {
	Name  string
	Tasks []*Task

	// Priority ranks workflows inside an ensemble: 0 is the highest priority
	// and scores 2^0 = 1; priority p scores 2^-p (Eq. 4).
	Priority int

	// DeadlineSeconds is the per-workflow deadline D (Eq. 3); 0 means unset.
	DeadlineSeconds float64
	// DeadlinePercentile is the probabilistic requirement p in P(t_w<=D)>=p;
	// 0 means the deterministic notion (expected time <= D).
	DeadlinePercentile float64

	byID     map[string]*Task
	children map[string][]string
	parents  map[string][]string

	// Lazy caches, filled on first use and dropped by AddTask/AddEdge. A
	// hit is one atomic load; fills are serialized by fillMu, so readers
	// sharing a finished workflow may trigger the first fill concurrently.
	fillMu sync.Mutex
	topo   atomic.Pointer[[]string] // topological order of task IDs
	flat   atomic.Pointer[Flat]     // index-based form (see Flatten)
}

// New creates an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{
		Name:     name,
		byID:     map[string]*Task{},
		children: map[string][]string{},
		parents:  map[string][]string{},
	}
}

// AddTask inserts a task. It returns an error on duplicate or empty IDs.
func (w *Workflow) AddTask(t *Task) error {
	if t.ID == "" {
		return fmt.Errorf("dag: task with empty ID")
	}
	if _, dup := w.byID[t.ID]; dup {
		return fmt.Errorf("dag: duplicate task ID %q", t.ID)
	}
	w.byID[t.ID] = t
	w.Tasks = append(w.Tasks, t)
	w.topo.Store(nil)
	w.flat.Store(nil)
	return nil
}

// AddEdge declares that child depends on parent. Both tasks must exist.
// Duplicate edges are ignored.
func (w *Workflow) AddEdge(parent, child string) error {
	if _, ok := w.byID[parent]; !ok {
		return fmt.Errorf("dag: edge references unknown parent %q", parent)
	}
	if _, ok := w.byID[child]; !ok {
		return fmt.Errorf("dag: edge references unknown child %q", child)
	}
	if parent == child {
		return fmt.Errorf("dag: self edge on %q", parent)
	}
	for _, c := range w.children[parent] {
		if c == child {
			return nil
		}
	}
	w.children[parent] = append(w.children[parent], child)
	w.parents[child] = append(w.parents[child], parent)
	w.topo.Store(nil)
	w.flat.Store(nil)
	return nil
}

// Task returns the task with the given ID, or nil.
func (w *Workflow) Task(id string) *Task { return w.byID[id] }

// Children returns the IDs of the direct successors of id.
func (w *Workflow) Children(id string) []string { return w.children[id] }

// Parents returns the IDs of the direct predecessors of id.
func (w *Workflow) Parents(id string) []string { return w.parents[id] }

// Roots returns the IDs of tasks with no parents, in insertion order.
func (w *Workflow) Roots() []string {
	var roots []string
	for _, t := range w.Tasks {
		if len(w.parents[t.ID]) == 0 {
			roots = append(roots, t.ID)
		}
	}
	return roots
}

// Leaves returns the IDs of tasks with no children, in insertion order.
func (w *Workflow) Leaves() []string {
	var leaves []string
	for _, t := range w.Tasks {
		if len(w.children[t.ID]) == 0 {
			leaves = append(leaves, t.ID)
		}
	}
	return leaves
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.Tasks) }

// Edges returns all (parent, child) pairs in a deterministic order.
func (w *Workflow) Edges() [][2]string {
	var es [][2]string
	for _, t := range w.Tasks {
		cs := append([]string(nil), w.children[t.ID]...)
		sort.Strings(cs)
		for _, c := range cs {
			es = append(es, [2]string{t.ID, c})
		}
	}
	return es
}

// TopoOrder returns task IDs in a topological order (Kahn's algorithm,
// deterministic by insertion order). It returns an error if the graph has a
// cycle.
func (w *Workflow) TopoOrder() ([]string, error) {
	if p := w.topo.Load(); p != nil {
		return *p, nil
	}
	w.fillMu.Lock()
	defer w.fillMu.Unlock()
	return w.topoLocked()
}

// topoLocked computes and caches the topological order; w.fillMu is held.
func (w *Workflow) topoLocked() ([]string, error) {
	if p := w.topo.Load(); p != nil {
		return *p, nil
	}
	indeg := make(map[string]int, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t.ID] = len(w.parents[t.ID])
	}
	var queue []string
	for _, t := range w.Tasks {
		if indeg[t.ID] == 0 {
			queue = append(queue, t.ID)
		}
	}
	order := make([]string, 0, len(w.Tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, c := range w.children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != len(w.Tasks) {
		return nil, fmt.Errorf("dag: workflow %q has a cycle", w.Name)
	}
	w.topo.Store(&order)
	return order, nil
}

// Validate checks structural invariants: acyclicity and edge endpoints.
func (w *Workflow) Validate() error {
	_, err := w.TopoOrder()
	return err
}

// Makespan computes the workflow execution time given each task's duration,
// as the longest path from any root to any leaf (the critical path of
// Eq. 3, with virtual root/tail tasks of zero weight). Missing durations
// count as zero. It returns the makespan and the end time of every task.
// It is a map-keyed adapter over the flat index-based core (Flat.Makespan),
// which hot paths use directly.
func (w *Workflow) Makespan(duration map[string]float64) (float64, map[string]float64, error) {
	f, err := w.Flatten()
	if err != nil {
		return 0, nil, err
	}
	dur := make([]float64, f.Len())
	fin := make([]float64, f.Len())
	for i, id := range f.IDs {
		dur[i] = duration[id]
	}
	makespan := f.Makespan(dur, fin)
	finish := make(map[string]float64, f.Len())
	for i, id := range f.IDs {
		finish[id] = fin[i]
	}
	return makespan, finish, nil
}

// CriticalPath returns the task IDs on a longest path (root→leaf) under the
// given durations, in execution order, together with the path length.
func (w *Workflow) CriticalPath(duration map[string]float64) ([]string, float64, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	finish := make(map[string]float64, len(order))
	pred := make(map[string]string, len(order))
	endID := ""
	makespan := -1.0
	for _, id := range order {
		start := 0.0
		from := ""
		for _, p := range w.parents[id] {
			if finish[p] > start {
				start = finish[p]
				from = p
			}
		}
		finish[id] = start + duration[id]
		pred[id] = from
		if finish[id] > makespan {
			makespan = finish[id]
			endID = id
		}
	}
	if endID == "" {
		return nil, 0, nil
	}
	var rev []string
	for id := endID; id != ""; id = pred[id] {
		rev = append(rev, id)
	}
	path := make([]string, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path, makespan, nil
}
