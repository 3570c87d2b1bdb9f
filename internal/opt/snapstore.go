package opt

import (
	"container/list"
	"sync"

	"deco/internal/probir"
)

// snapStore retains per-state finish-time snapshots across frontier
// generations so children expanded later — possibly many levels later, via
// the exploitation heap — can still evaluate incrementally from their
// parent. Entries are LRU-evicted under a byte budget; evicted snapshots go
// back to the evaluator's pool, so the arenas themselves are reused across
// generations. Missing a snapshot is never an error: the child just
// evaluates fully.
//
// Lifetime contract: put is only called after a batch's sampling has fully
// completed, so an eviction (which recycles the snapshot's arrays through
// the pool) can never pull the finish times out from under a running kernel.
type snapStore struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
	release func(*probir.Snapshot)

	evictions int64
}

// snapEntry is one stored (state key, snapshot) pair.
type snapEntry struct {
	key  string
	snap *probir.Snapshot
}

func newSnapStore(budget int64, release func(*probir.Snapshot)) *snapStore {
	return &snapStore{
		budget:  budget,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		release: release,
	}
}

// get returns the snapshot stored for a state key, marking it most recently
// used.
func (s *snapStore) get(key string) (*probir.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*snapEntry).snap, true
}

// put stores a snapshot under a state key, releasing any previous snapshot
// for the same key and LRU-evicting over budget. The entry just inserted is
// never evicted (a snapshot larger than the whole budget is released
// immediately instead of stored).
func (s *snapStore) put(key string, snap *probir.Snapshot) {
	if snap == nil {
		return
	}
	b := snap.Bytes()
	s.mu.Lock()
	if b > s.budget {
		s.mu.Unlock()
		s.release(snap)
		return
	}
	// The replace path (same key re-captured, the steady state of a warm
	// search) must not allocate: the previous snapshot is released directly
	// and the eviction slice is only built when the budget actually forces
	// evictions.
	var prev *probir.Snapshot
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*snapEntry)
		s.used += b - e.snap.Bytes()
		prev = e.snap
		e.snap = snap
		s.ll.MoveToFront(el)
	} else {
		s.entries[key] = s.ll.PushFront(&snapEntry{key: key, snap: snap})
		s.used += b
	}
	var evicted []*probir.Snapshot
	for s.used > s.budget && s.ll.Len() > 1 {
		back := s.ll.Back()
		e := back.Value.(*snapEntry)
		s.ll.Remove(back)
		delete(s.entries, e.key)
		s.used -= e.snap.Bytes()
		s.evictions++
		evicted = append(evicted, e.snap)
	}
	s.mu.Unlock()
	if prev != nil {
		s.release(prev)
	}
	for _, sn := range evicted {
		s.release(sn)
	}
}

// drain releases every stored snapshot and empties the store, returning the
// entry count and bytes it held. The eviction count is kept.
func (s *snapStore) drain() (entries int, bytes int64) {
	s.mu.Lock()
	var out []*probir.Snapshot
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*snapEntry).snap)
	}
	entries, bytes = len(s.entries), s.used
	s.ll.Init()
	clear(s.entries)
	s.used = 0
	s.mu.Unlock()
	for _, sn := range out {
		s.release(sn)
	}
	return entries, bytes
}

// has reports whether a snapshot is already stored for a state key without
// touching LRU order.
func (s *snapStore) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// stats returns the live entry count, retained bytes, and eviction count.
func (s *snapStore) stats() (entries int, bytes, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.used, s.evictions
}
