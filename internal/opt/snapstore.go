package opt

import (
	"container/heap"
	"sync"

	"deco/internal/probir"
)

// snapStore retains the finish-time snapshots of evaluated states until the
// search expands them: only an expanded state's snapshot ever parents a
// delta kernel, so the search releases a parent's snapshot (remove) once its
// child batch has been evaluated, once dedup leaves it no children, or when
// A* prunes it. Over the byte budget the store evicts the entry the search
// would expand last — the worst Score, ties broken by the larger key, the
// reverse of the order in which the search's best-first pool pops — so the
// states about to be expanded keep their snapshots. Released and
// evicted snapshots go back through the evaluator's ReleaseSnapshot. Missing
// a snapshot is never an error: the expansion re-evaluates the parent once
// (completeParent) or its children evaluate fully.
//
// Lifetime contract: put runs only after a batch's sampling has completed,
// and remove only after the batch that read the parent. The one eviction
// that can happen while kernels are built but not yet run — a nested
// completeParent's put — is safe because every delta kernel pins the parent
// it reads, and ReleaseSnapshot defers a pinned arena until its last
// dependent lets go.
type snapStore struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*snapEntry
	worst   snapHeap // root = the next entry to evict
	release func(*probir.Snapshot)

	evictions int64
}

// snapEntry is one stored (state key, score, snapshot) triple; idx is its
// position in the heap.
type snapEntry struct {
	key   string
	score float64
	snap  *probir.Snapshot
	idx   int
}

// snapHeap orders entries worst first: higher score, then larger key.
type snapHeap []*snapEntry

func (h snapHeap) Len() int { return len(h) }
func (h snapHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].key > h[j].key
}
func (h snapHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *snapHeap) Push(x any) {
	e := x.(*snapEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *snapHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

func newSnapStore(budget int64, release func(*probir.Snapshot)) *snapStore {
	return &snapStore{budget: budget, entries: make(map[string]*snapEntry), release: release}
}

// get returns the snapshot stored for a state key.
func (s *snapStore) get(key string) (*probir.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return e.snap, true
}

// put stores a snapshot under a state key with the state's search score,
// releasing any previous snapshot for the same key, and evicts the others
// worst-first while over budget. The entry just stored survives its own put
// whatever its rank or size: a parent that completeParent re-evaluated must
// outlast the sibling kernels about to be built from it.
func (s *snapStore) put(key string, score float64, snap *probir.Snapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		heap.Remove(&s.worst, e.idx)
		s.used -= e.snap.Bytes()
		s.release(e.snap)
	} else {
		e = &snapEntry{key: key}
		s.entries[key] = e
	}
	e.score, e.snap = score, snap
	s.used += snap.Bytes()
	for s.used > s.budget && len(s.worst) > 0 {
		s.drop(heap.Pop(&s.worst).(*snapEntry))
		s.evictions++
	}
	heap.Push(&s.worst, e)
}

// remove releases the snapshot stored for a state key, if any.
func (s *snapStore) remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		heap.Remove(&s.worst, e.idx)
		s.drop(e)
	}
}

// drop forgets an entry already taken out of the heap and releases its
// snapshot. The caller holds mu.
func (s *snapStore) drop(e *snapEntry) {
	delete(s.entries, e.key)
	s.used -= e.snap.Bytes()
	s.release(e.snap)
}

// drain releases every stored snapshot and empties the store, returning the
// entry count and bytes it held. The eviction count is kept.
func (s *snapStore) drain() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, bytes = len(s.entries), s.used
	for _, e := range s.worst {
		s.release(e.snap)
	}
	clear(s.worst)
	s.worst = s.worst[:0]
	clear(s.entries)
	s.used = 0
	return entries, bytes
}

// stats returns the live entry count, retained bytes, and eviction count.
func (s *snapStore) stats() (entries int, bytes, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.used, s.evictions
}
