// Package cluster turns N decod processes into one planning service. Three
// small pieces compose into the distributed story:
//
//   - Ring: a rendezvous-hash ring over a static peer list that assigns every
//     job key a single owner, sharding plan-cache and eval-cache ownership
//     across the cluster (the owner's caches accumulate that key's plans and
//     state evaluations; everyone else forwards).
//   - Group: singleflight coalescing, so concurrent identical job keys —
//     locally submitted or forwarded in — share one computation.
//   - Client: the HTTP peer-forwarding client a non-owner uses to route a job
//     to its owner, with the caller falling back to local computation when
//     the owner is unreachable or slow (hedging).
//
// The package is deliberately transport-thin and state-free: membership is a
// static -peers list (no gossip), and consistency is trivial because plans
// are pure functions of their job key — any node can compute any plan, so
// ownership is an optimization (cache locality, deduplication), never a
// correctness requirement.
package cluster

import (
	"hash/fnv"
	"sort"
)

// Ring assigns keys to peers by rendezvous (highest-random-weight) hashing:
// the owner of a key is the peer maximizing hash(peer, key). Unlike a ketama
// ring, rendezvous hashing needs no virtual nodes for balance and moves only
// 1/N of the keyspace when a peer is added or removed.
type Ring struct {
	self  string
	peers []string // sorted, deduplicated, includes self
}

// NewRing builds a ring over peers, ensuring self is a member. Peer strings
// are compared verbatim, so every node must be configured with the same
// spelling of each address (including scheme and port).
func NewRing(self string, peers []string) *Ring {
	seen := make(map[string]bool, len(peers)+1)
	all := make([]string, 0, len(peers)+1)
	for _, p := range append(append([]string(nil), peers...), self) {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		all = append(all, p)
	}
	sort.Strings(all)
	return &Ring{self: self, peers: all}
}

// Self returns this node's own address as configured.
func (r *Ring) Self() string { return r.self }

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.peers) }

// Owner returns the peer owning key: the member with the highest
// hash(member, key) score. A ring with no members owns nothing and returns
// self.
func (r *Ring) Owner(key string) string {
	if len(r.peers) == 0 {
		return r.self
	}
	best, bestScore := r.peers[0], uint64(0)
	for i, p := range r.peers {
		s := score(p, key)
		if i == 0 || s > bestScore || (s == bestScore && p < best) {
			best, bestScore = p, s
		}
	}
	return best
}

// score is the rendezvous weight of (peer, key): FNV-1a over both, with a
// separator so ("ab","c") and ("a","bc") never collide.
func score(peer, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
