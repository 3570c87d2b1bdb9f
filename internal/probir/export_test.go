package probir

// SnapshotPoolBytes exports the snapshot freelist's capacity bound to the
// external tests.
const SnapshotPoolBytes = snapPoolBytes

// SnapshotPool reports the snapshot freelist's state: how many arenas
// NewSnapshot has allocated fresh so far, the capacity bytes the freelist
// books, and the capacity bytes its arenas actually hold.
func SnapshotPool() (fresh, booked, held int64) {
	snapPool.mu.Lock()
	defer snapPool.mu.Unlock()
	for _, s := range snapPool.free {
		held += s.capBytes()
	}
	return snapPool.fresh, snapPool.bytes, held
}
