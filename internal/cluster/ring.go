// Package cluster is the multi-node session fabric (DESIGN.md §12): a
// consistent-hash ring that places sessions on shared-nothing qfe-server
// workers, a health monitor that detects worker death from failed probes,
// and a router that proxies the session API with retry-safe semantics and
// hands a dead worker's durable estate (snapshot + WAL root) to the
// survivors so acknowledged state outlives any single node.
package cluster

import (
	"sort"
)

// ringReplicas is the default virtual-node count per member. More points
// smooth the load split and shrink the variance of the "keys moved on
// membership change" fraction toward the ideal 1/N.
const ringReplicas = 128

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the member set: two rings built from the same members agree
// on every key, across processes and restarts — the property that lets the
// router rebuild routing from configuration alone, with no placement table
// to persist. Ring is not safe for concurrent use; the router guards it.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by (hash, node)
	members  map[string]bool
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// member.
type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates an empty ring. replicas <= 0 selects the default (128
// virtual nodes per member).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = ringReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// fnv1a is the 64-bit FNV-1a hash — cheap, dependency-free, and stable
// across processes (unlike maphash), which Lookup's determinism needs.
func fnv1a(parts ...[]byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, p := range parts {
		for _, b := range p {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

// mix64 is MurmurHash3's 64-bit finalizer: a full-avalanche bijection.
// FNV-1a alone leaves the points of one member on a near-arithmetic lattice
// (consecutive indexes differ in one trailing byte, so their hashes differ
// by a linear step), which clumps arcs badly; the finalizer destroys that
// structure while keeping the hash deterministic across processes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash positions virtual node i of a member on the circle.
func pointHash(node string, i int) uint64 {
	var idx [4]byte
	idx[0], idx[1], idx[2], idx[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
	// The separator keeps ("ab", 1) and ("a", ...) point families disjoint.
	return mix64(fnv1a([]byte(node), []byte{0}, idx[:]))
}

// Add inserts a member (no-op if present).
func (r *Ring) Add(node string) {
	if r.members[node] {
		return
	}
	r.members[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties broken by node id so placement stays deterministic even
		// across colliding points of different members.
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a member (no-op if absent). Only keys owned by the removed
// member move; every other key keeps its node — the "minimal movement"
// contract consistent hashing exists for.
func (r *Ring) Remove(node string) {
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Lookup returns the member owning key — the first virtual node at or
// clockwise of the key's hash — or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(key)].node
}

// LookupN returns up to n distinct members in preference order: the owner
// first, then each next distinct member clockwise. The order is the failover
// preference list — when the owner is removed, the key's new owner under
// Lookup is exactly the next entry, which is what lets the router place
// creates past a fenced node and still agree with post-removal lookups.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	start := r.successor(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// successor finds the index of the first point at or clockwise of the
// key's hash (wrapping).
func (r *Ring) successor(key string) int {
	h := mix64(fnv1a([]byte(key)))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
