// Hash-based evaluation kernel (DESIGN.md §7).
//
// Every hot path of the engine — bag/set dedup, hash joins, tuple-class
// partitioning, result fingerprints — used to funnel through
// Value.appendKey/Tuple.Key, building a fresh strings.Builder string per
// value per tuple per winnowing round. This file replaces that string
// material with fixed-width word hashing:
//
//   - Value/Tuple hash by folding (kind tag, normalized numeric bits or the
//     string's FNV-1a hash) words through an FNV-1a-style multiply-xor with
//     a final avalanche — zero heap allocations;
//   - Bag is a hash-keyed multiset with equality verification on collision:
//     correctness NEVER depends on hash uniqueness, only speed does.
//
// The equality the kernel verifies is key equality — exactly the relation
// induced by Value.Key/Tuple.Key (Int(3) ≡ Float(3.0), mirroring Compare on
// the normalizable range) — exposed allocation-free as Value.KeyEqual and
// Tuple.KeyEqual, so the hashed paths are observationally identical to the
// legacy string-keyed paths (kept as slowXxx reference implementations and
// asserted equivalent by differential tests).
//
// Hashes are never persisted: codec snapshots do not store them, and
// everything is recomputed lazily after restore.
package relation

import (
	"math"
	"sync/atomic"
)

// FNV-1a word folding with a murmur-style finalizer. hashWord is the
// per-word step; avalanche spreads the final state so truncated/bucketed
// uses of the hash stay well distributed.
const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211

	// Seeds for the two independent words of 128-bit bag fingerprints.
	fpSeedLo = 0x9e3779b97f4a7c15
	fpSeedHi = 0xc2b2ae3d27d4eb4f
)

func hashWord(h, w uint64) uint64 { return (h ^ w) * hashPrime64 }

// hashString folds a string byte-wise (FNV-1a) without converting to []byte.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime64
	}
	return h
}

func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// collisionTestBits, when positive, truncates every kernel hash to that many
// low bits, forcing unequal values and tuples into shared buckets. It exists
// solely so tests can prove the collision-verification invariant — every
// kernel operation must produce identical results at any truncation level,
// because equality is always verified with KeyEqual/Equal on bucket scans.
// Atomic so -race stays clean when parallel tests read full hashes; the
// relaxed load compiles to a plain move and is free on the hot path.
var collisionTestBits atomic.Int32

// ForceHashCollisionsForTesting truncates all kernel hashes to the low
// `bits` bits (bits <= 0 restores full 64-bit hashes). Test-only: it makes
// hash collisions routine instead of astronomically rare, so the
// verification paths actually execute. Callers must restore 0 when done.
func ForceHashCollisionsForTesting(bits int) { collisionTestBits.Store(int32(bits)) }

// CollisionTestMask applies the test truncation to a kernel hash. It is the
// identity in production. Kernel hashes computed outside this package
// (tupleclass.Class.Hash64) route through it so a test degrade applies
// uniformly across the whole stack.
func CollisionTestMask(h uint64) uint64 {
	if b := collisionTestBits.Load(); b > 0 {
		return h & (1<<uint(b) - 1)
	}
	return h
}

// keyClass normalizes a value into the equality class its Key encodes:
// integral floats inside the exactly-representable window collapse onto
// ints (so Int(3) ≡ Float(3.0), mirroring Compare), NaNs collapse onto one
// class, and everything else keys on its own kind.
type keyClass uint8

const (
	kcNull keyClass = iota
	kcFalse
	kcTrue
	kcInt
	kcFloat
	kcNaN
	kcStr
)

// normalize returns the value's key class plus the class payload (int64
// value for kcInt, float bits for kcFloat; zero otherwise).
func (v Value) normalize() (keyClass, int64, uint64) {
	switch v.Kind {
	case KindNull:
		return kcNull, 0, 0
	case KindBool:
		if v.B {
			return kcTrue, 0, 0
		}
		return kcFalse, 0, 0
	case KindInt:
		return kcInt, v.I, 0
	case KindFloat:
		if v.F != v.F {
			return kcNaN, 0, 0
		}
		// Same window as appendKey: integral floats encode like ints so the
		// hashed and string-keyed paths induce the same equality.
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) && math.Abs(v.F) < 1e15 {
			return kcInt, int64(v.F), 0
		}
		return kcFloat, 0, math.Float64bits(v.F)
	default:
		return kcStr, 0, 0
	}
}

// KeyEqual reports whether v.Key() == w.Key() without materialising either
// key. It is the equality the hash kernel verifies on bucket collisions.
func (v Value) KeyEqual(w Value) bool {
	vc, vi, vf := v.normalize()
	wc, wi, wf := w.normalize()
	if vc != wc {
		return false
	}
	switch vc {
	case kcInt:
		return vi == wi
	case kcFloat:
		return vf == wf
	case kcStr:
		return v.S == w.S
	default: // null / bools / NaN: the class is the identity
		return true
	}
}

// appendHash folds v into a running hash as fixed-width words: one kind-tag
// word plus one payload word (normalized numeric bits, or the FNV-1a hash
// of a string's bytes). Zero heap allocations.
func (v Value) appendHash(h uint64) uint64 {
	c, i, f := v.normalize()
	switch c {
	case kcInt:
		return hashWord(hashWord(h, uint64(c)), uint64(i))
	case kcFloat:
		return hashWord(hashWord(h, uint64(c)), f)
	case kcStr:
		return hashWord(hashWord(h, uint64(c)), hashString(hashOffset64, v.S))
	default:
		return hashWord(h, uint64(c))
	}
}

// Hash64 returns the value's 64-bit hash. KeyEqual values hash equal;
// unequal values collide only with ordinary 64-bit probability, and every
// kernel use verifies equality on collision.
func (v Value) Hash64() uint64 {
	return CollisionTestMask(avalanche(v.appendHash(hashOffset64)))
}

// hashSeeded folds the tuple's values from the given seed. Hash64 and
// HashProj are both expressed through it, and the 128-bit bag fingerprint
// uses two distinct seeds.
func (t Tuple) hashSeeded(seed uint64) uint64 {
	h := seed
	for _, v := range t {
		h = v.appendHash(h)
	}
	return CollisionTestMask(avalanche(hashWord(h, uint64(len(t)))))
}

// Hash64 returns the tuple's 64-bit content hash with zero allocations.
// Tuples that are KeyEqual hash equal.
func (t Tuple) Hash64() uint64 { return t.hashSeeded(hashOffset64) }

// HashProj hashes the projection t[idx[0]], t[idx[1]], ... without
// materialising it: HashProj(t, idx) == Hash64(t.Project(idx)).
func (t Tuple) HashProj(idx []int) uint64 {
	h := uint64(hashOffset64)
	for _, j := range idx {
		h = t[j].appendHash(h)
	}
	return CollisionTestMask(avalanche(hashWord(h, uint64(len(idx)))))
}

// KeyEqual reports whether t.Key() == u.Key() without materialising keys.
func (t Tuple) KeyEqual(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].KeyEqual(u[i]) {
			return false
		}
	}
	return true
}

// HashInts folds a slice of small ints through the kernel hash. It exists
// so sibling kernel hashes (tupleclass.Class.Hash64) share this package's
// fold, finalizer and CollisionTestMask instead of re-implementing them.
func HashInts(xs []int) uint64 {
	h := uint64(hashOffset64)
	for _, x := range xs {
		h = hashWord(h, uint64(x))
	}
	return CollisionTestMask(avalanche(h))
}

// bagEntry is one distinct tuple (under KeyEqual) with its multiplicity.
// In the small (slice) mode the stored hash stands in for the map key.
type bagEntry struct {
	h uint64
	t Tuple
	n int
}

// smallBagMax is the distinct-entry count up to which a Bag stays a flat
// slice scanned linearly instead of a hash map. Comparing a handful of
// uint64 hashes beats a map probe, and — more importantly on the tiny
// relations of Example 1.1-sized databases — skips the map allocation
// entirely. Past the threshold the bag spills into the map transparently.
const smallBagMax = 12

// Bag is a hash-keyed multiset of tuples with equality verification on hash
// collision: tuples sharing a 64-bit hash live in one bucket and are told
// apart by KeyEqual, so counts are exact regardless of hash quality. It
// replaces the map[string]int built from Tuple.Key on every hot path.
//
// Bags sized (by the NewBag hint) at or under smallBagMax start in a small
// mode — a flat entry slice with linear hash scan and no map — and spill to
// the hash map only when the distinct count outgrows the threshold, so the
// thousands of tiny bags built per candidate search on small databases never
// touch the map runtime. Not safe for concurrent use; the parallel paths
// build one bag per worker or per call.
type Bag struct {
	small    []bagEntry // small mode storage; nil once spilled
	m        map[uint64][]bagEntry
	distinct int
}

// NewBag returns an empty bag sized for about hint distinct tuples.
func NewBag(hint int) *Bag {
	if hint <= smallBagMax {
		return &Bag{}
	}
	return &Bag{m: make(map[uint64][]bagEntry, hint)}
}

// smallFind returns the index of the entry with hash h that is KeyEqual to t
// in the small slice, or -1.
func (b *Bag) smallFind(h uint64, t Tuple) int {
	for i := range b.small {
		if b.small[i].h == h && b.small[i].t.KeyEqual(t) {
			return i
		}
	}
	return -1
}

// spill migrates the small slice into the hash map once the distinct count
// outgrows smallBagMax.
func (b *Bag) spill() {
	b.m = make(map[uint64][]bagEntry, 2*smallBagMax)
	for _, e := range b.small {
		b.m[e.h] = append(b.m[e.h], e)
	}
	b.small = nil
}

// insert stores a brand-new entry in whichever mode the bag is in.
func (b *Bag) insert(e bagEntry) {
	if b.m == nil {
		if len(b.small) < smallBagMax {
			b.small = append(b.small, e)
			b.distinct++
			return
		}
		b.spill()
	}
	b.m[e.h] = append(b.m[e.h], e)
	b.distinct++
}

// Inc adjusts the count of t by d (creating the entry if needed, including
// at negative counts) and returns the new count. The tuple is retained by
// reference; callers must not mutate it afterwards.
func (b *Bag) Inc(t Tuple, d int) int {
	h := t.Hash64()
	if b.m == nil {
		if i := b.smallFind(h, t); i >= 0 {
			b.small[i].n += d
			return b.small[i].n
		}
	} else {
		bucket := b.m[h]
		for i := range bucket {
			if bucket[i].t.KeyEqual(t) {
				bucket[i].n += d
				return bucket[i].n
			}
		}
	}
	b.insert(bagEntry{h: h, t: t, n: d})
	return d
}

// Count returns the current count of t (0 if absent).
func (b *Bag) Count(t Tuple) int {
	h := t.Hash64()
	if b.m == nil {
		if i := b.smallFind(h, t); i >= 0 {
			return b.small[i].n
		}
		return 0
	}
	for _, e := range b.m[h] {
		if e.t.KeyEqual(t) {
			return e.n
		}
	}
	return 0
}

// TakeOne decrements t's count if it is positive and reports whether it did.
func (b *Bag) TakeOne(t Tuple) bool {
	h := t.Hash64()
	if b.m == nil {
		if i := b.smallFind(h, t); i >= 0 {
			if b.small[i].n <= 0 {
				return false
			}
			b.small[i].n--
			return true
		}
		return false
	}
	bucket := b.m[h]
	for i := range bucket {
		if bucket[i].t.KeyEqual(t) {
			if bucket[i].n <= 0 {
				return false
			}
			bucket[i].n--
			return true
		}
	}
	return false
}

// ForEach visits every entry (including non-positive counts) in
// unspecified order. Callers needing determinism must sort or combine
// commutatively.
func (b *Bag) ForEach(f func(t Tuple, n int)) {
	for i := range b.small {
		f(b.small[i].t, b.small[i].n)
	}
	for _, bucket := range b.m {
		for _, e := range bucket {
			f(e.t, e.n)
		}
	}
}

// Fingerprint128 returns a 128-bit order-insensitive fingerprint of the
// bag's positive-count entries: two bags agree iff they hold the same
// tuples with the same multiplicities (with distinct=true, multiplicities
// collapse to set membership), up to 128-bit hash collision. Each entry
// contributes two independently seeded avalanche words combined by
// wrapping addition, so the result is independent of iteration order.
//
// Unlike the verified Bag operations this fingerprint is probabilistic —
// it is used only to group candidate queries by their predicted result
// (algebra.Query.DeltaFingerprint), where a collision would merge two
// query groups; at 128 bits that probability is negligible for any
// realistic candidate count.
func (b *Bag) Fingerprint128(distinct bool) (lo, hi uint64) {
	fold := func(e *bagEntry) {
		if e.n <= 0 {
			return
		}
		n := uint64(e.n)
		if distinct {
			n = 1
		}
		lo += avalanche(hashWord(e.t.hashSeeded(fpSeedLo), n))
		hi += avalanche(hashWord(e.t.hashSeeded(fpSeedHi), n))
	}
	for i := range b.small {
		fold(&b.small[i])
	}
	for _, bucket := range b.m {
		for i := range bucket {
			fold(&bucket[i])
		}
	}
	return lo, hi
}

// Bag returns the relation's tuples as a Bag (multiplicities under
// KeyEqual). It is the hashed replacement for Counts.
func (r *Relation) Bag() *Bag {
	b := NewBag(len(r.Tuples))
	for _, t := range r.Tuples {
		b.Inc(t, 1)
	}
	return b
}
