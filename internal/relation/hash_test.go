package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// --- hash/key-equality semantics --------------------------------------------

func TestValueHashMirrorsKey(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false),
		Int(0), Int(3), Int(-3), Int(1 << 40),
		Float(3), Float(3.0), Float(3.5), Float(-0.0), Float(0.0),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(1e16), Int(10000000000000000),
		Str(""), Str("3"), Str("t"), Str("abc"),
	}
	for _, v := range vals {
		for _, w := range vals {
			keyEq := v.Key() == w.Key()
			if got := v.KeyEqual(w); got != keyEq {
				t.Errorf("KeyEqual(%v, %v) = %v, Key equality = %v", v, w, got, keyEq)
			}
			if keyEq && v.Hash64() != w.Hash64() {
				t.Errorf("key-equal values %v, %v hash differently", v, w)
			}
		}
	}
	// The paper-relevant coincidences.
	if !Int(3).KeyEqual(Float(3.0)) || Int(3).Hash64() != Float(3.0).Hash64() {
		t.Error("Int(3) and Float(3.0) must be key-equal and hash-equal (mirrors Compare)")
	}
	if Int(3).KeyEqual(Float(3.5)) || Str("3").KeyEqual(Int(3)) || Str("t").KeyEqual(Bool(true)) {
		t.Error("cross-kind values must not be key-equal")
	}
}

func TestTupleHashAgreesWithKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randVal := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(int64(rng.Intn(5)))
		case 1:
			return Float(float64(rng.Intn(5)))
		case 2:
			return Str(fmt.Sprintf("s%d", rng.Intn(4)))
		case 3:
			return Bool(rng.Intn(2) == 0)
		default:
			return Null()
		}
	}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(4)
		a, b := make(Tuple, n), make(Tuple, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = randVal(), randVal()
		}
		keyEq := a.Key() == b.Key()
		if got := a.KeyEqual(b); got != keyEq {
			t.Fatalf("Tuple.KeyEqual(%v, %v) = %v, Key equality = %v", a, b, got, keyEq)
		}
		if keyEq && a.Hash64() != b.Hash64() {
			t.Fatalf("key-equal tuples %v, %v hash differently", a, b)
		}
	}
}

func TestHashProjMatchesProjectedHash(t *testing.T) {
	tup := NewTuple(1, "a", 2.5, true, nil)
	idxs := [][]int{{}, {0}, {2, 0}, {4, 3, 1}, {0, 1, 2, 3, 4}}
	for _, idx := range idxs {
		if got, want := tup.HashProj(idx), tup.Project(idx).Hash64(); got != want {
			t.Errorf("HashProj(%v) = %x, Project().Hash64() = %x", idx, got, want)
		}
	}
}

// --- forced-collision soundness ---------------------------------------------

// TestBagCollisionSoundness truncates every kernel hash to a single bit, so
// two unequal tuples land in the same bucket by construction, and checks
// that counting, membership and decrement still treat them as distinct —
// the collision-verification invariant of DESIGN.md §7.
func TestBagCollisionSoundness(t *testing.T) {
	ForceHashCollisionsForTesting(1)
	defer ForceHashCollisionsForTesting(0)

	t1 := NewTuple(1, "a")
	t2 := NewTuple(2, "b")
	if t1.KeyEqual(t2) {
		t.Fatal("test tuples must be unequal")
	}
	if t1.Hash64() != t2.Hash64() {
		// With 1-bit hashes the pair can land on opposite bits; pick another.
		t2 = NewTuple(3, "c")
		if t1.Hash64() != t2.Hash64() {
			t2 = NewTuple(4, "d")
		}
	}
	if t1.Hash64() != t2.Hash64() {
		t.Fatal("could not force two unequal tuples into one bucket")
	}
	b := NewBag(2)
	b.Inc(t1, 2)
	b.Inc(t2, 5)
	if got := b.Count(t1); got != 2 {
		t.Errorf("Count(t1) = %d, want 2", got)
	}
	if got := b.Count(t2); got != 5 {
		t.Errorf("Count(t2) in shared bucket = %d, want 5", got)
	}
	if !b.TakeOne(t2) || b.Count(t2) != 4 || b.Count(t1) != 2 {
		t.Error("TakeOne must decrement only the key-equal entry")
	}
	// Projection probes through the shared bucket must verify too.
	wide := Tuple{Int(0), t2[0], t2[1], Int(0)}
	if got := b.CountProj(wide, []int{1, 2}); got != 4 {
		t.Errorf("CountProj through collided bucket = %d, want 4", got)
	}
}

// TestRelationOpsUnderForcedCollisions reruns the hashed relation
// operations with kernel hashes truncated to 2 bits — every bucket scan
// handles unequal cohabitants — and cross-checks against the string-keyed
// slow paths, which do not depend on hashing at all.
func TestRelationOpsUnderForcedCollisions(t *testing.T) {
	ForceHashCollisionsForTesting(2)
	defer ForceHashCollisionsForTesting(0)

	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 400; trial++ {
		a, b := randomRelation(rng), randomRelation(rng)
		if a.BagEqual(b) != a.slowBagEqual(b) {
			t.Fatalf("trial %d: BagEqual diverges under collisions\na=%v\nb=%v", trial, a.Tuples, b.Tuples)
		}
		if a.SetEqual(b) != a.slowSetEqual(b) {
			t.Fatalf("trial %d: SetEqual diverges under collisions\na=%v\nb=%v", trial, a.Tuples, b.Tuples)
		}
		da, sa := a.Distinct(), a.slowDistinct()
		if len(da.Tuples) != len(sa.Tuples) {
			t.Fatalf("trial %d: Distinct diverges under collisions: %v vs %v", trial, da.Tuples, sa.Tuples)
		}
		for i := range da.Tuples {
			if !da.Tuples[i].KeyEqual(sa.Tuples[i]) {
				t.Fatalf("trial %d: Distinct order diverges under collisions", trial)
			}
		}
		bag, counts := a.Bag(), a.Counts()
		bag.ForEach(func(tp Tuple, n int) {
			if counts[tp.Key()] != n {
				t.Fatalf("trial %d: Bag count diverges under collisions for %v", trial, tp)
			}
		})
	}
}

// --- differential property tests (hashed vs string-keyed) -------------------

func randomRelation(rng *rand.Rand) *Relation {
	schema := NewSchema("a", KindInt, "b", KindString, "c", KindFloat)
	r := New("T", schema)
	n := rng.Intn(12)
	cats := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		// Int and integral Float columns deliberately overlap so the
		// Int(3) ≡ Float(3.0) coincidence is exercised constantly.
		r.Append(Tuple{
			Int(int64(rng.Intn(4))),
			Str(cats[rng.Intn(len(cats))]),
			Float(float64(rng.Intn(4))),
		})
	}
	return r
}

// TestDifferentialHashedVsStringOps is the testing/quick-style differential
// test of the tentpole: on randomized relations, every hashed operation
// must agree with its slowXxx string-keyed reference.
func TestDifferentialHashedVsStringOps(t *testing.T) {
	rng := rand.New(rand.NewSource(20150813))
	cfg := &quick.Config{
		MaxCount: 1500,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(r))
			vals[1] = reflect.ValueOf(randomRelation(r))
		},
	}
	prop := func(a, b *Relation) bool {
		if a.BagEqual(b) != a.slowBagEqual(b) {
			t.Logf("BagEqual diverges on %v vs %v", a.Tuples, b.Tuples)
			return false
		}
		if a.SetEqual(b) != a.slowSetEqual(b) {
			t.Logf("SetEqual diverges on %v vs %v", a.Tuples, b.Tuples)
			return false
		}
		da, sa := a.Distinct(), a.slowDistinct()
		if len(da.Tuples) != len(sa.Tuples) {
			t.Logf("Distinct sizes diverge on %v", a.Tuples)
			return false
		}
		for i := range da.Tuples {
			if !da.Tuples[i].KeyEqual(sa.Tuples[i]) {
				t.Logf("Distinct order diverges on %v", a.Tuples)
				return false
			}
		}
		// Bag counts must equal the Counts() reference per distinct tuple.
		bag, counts := a.Bag(), a.Counts()
		ok := true
		bag.ForEach(func(tp Tuple, n int) {
			if counts[tp.Key()] != n {
				ok = false
			}
		})
		if !ok || bag.Distinct() != len(counts) || bag.Total() != a.Len() {
			t.Logf("Bag counts diverge on %v", a.Tuples)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDifferentialBagFingerprint checks that Fingerprint128 equality
// coincides with bag equality on random relations (equal bags always agree;
// unequal bags disagree absent a 128-bit collision, which would be a bug in
// practice at these sizes).
func TestDifferentialBagFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1500; trial++ {
		a, b := randomRelation(rng), randomRelation(rng)
		alo, ahi := a.Bag().Fingerprint128(false)
		blo, bhi := b.Bag().Fingerprint128(false)
		fpEq := alo == blo && ahi == bhi
		if got := a.BagEqual(b); got != fpEq {
			t.Fatalf("trial %d: BagEqual=%v but Fingerprint128 equality=%v\na=%v\nb=%v",
				trial, got, fpEq, a.Tuples, b.Tuples)
		}
		// Shuffling never changes the fingerprint (order-insensitive).
		shuf := a.Clone()
		rng.Shuffle(len(shuf.Tuples), func(i, j int) {
			shuf.Tuples[i], shuf.Tuples[j] = shuf.Tuples[j], shuf.Tuples[i]
		})
		slo, shi := shuf.Bag().Fingerprint128(false)
		if slo != alo || shi != ahi {
			t.Fatalf("trial %d: fingerprint is order-sensitive", trial)
		}
	}
}

// slowDistinct is the string-keyed Distinct, the reference implementation
// for the kernel's differential tests.
func (r *Relation) slowDistinct() *Relation {
	out := New(r.Name, r.Schema)
	seen := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Counts returns the multiset of tuple keys with multiplicities: the
// string-keyed reference form of Bag.
func (r *Relation) Counts() map[string]int {
	m := make(map[string]int, len(r.Tuples))
	for _, t := range r.Tuples {
		m[t.Key()]++
	}
	return m
}

// slowFingerprint is the string-keyed canonical form of r's bag, its sorted
// tuple keys (with distinct, of its set): two relations share it exactly
// when they are BagEqual (SetEqual).
func (r *Relation) slowFingerprint(distinct bool) string {
	if distinct {
		r = r.slowDistinct()
	}
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// IncProj is Inc on the projection t[idx] without materialising it unless
// the projection is new to the bag (first occurrence stores a materialised
// copy, so later probes stay allocation-free).
func (b *Bag) IncProj(t Tuple, idx []int, d int) int {
	h := t.HashProj(idx)
	if b.m == nil {
		if i := b.smallFindProj(h, t, idx); i >= 0 {
			b.small[i].n += d
			return b.small[i].n
		}
	} else {
		bucket := b.m[h]
		for i := range bucket {
			if t.keyEqualProj(idx, bucket[i].t) {
				bucket[i].n += d
				return bucket[i].n
			}
		}
	}
	b.insert(bagEntry{h: h, t: t.Project(idx), n: d})
	return d
}

// smallFindProj is smallFind for an unmaterialised projection t[idx].
func (b *Bag) smallFindProj(h uint64, t Tuple, idx []int) int {
	for i := range b.small {
		if b.small[i].h == h && t.keyEqualProj(idx, b.small[i].t) {
			return i
		}
	}
	return -1
}

// keyEqualProj reports whether t.Project(idx) is KeyEqual to the already
// materialised tuple u.
func (t Tuple) keyEqualProj(idx []int, u Tuple) bool {
	if len(idx) != len(u) {
		return false
	}
	for k, j := range idx {
		if !t[j].KeyEqual(u[k]) {
			return false
		}
	}
	return true
}

// Distinct returns the number of distinct tuples ever inserted (entries are
// never removed, only counted down).
func (b *Bag) Distinct() int { return b.distinct }

// CountProj returns the count of the projection t[idx] without
// materialising it, probing the buckets as IncProj does.
func (b *Bag) CountProj(t Tuple, idx []int) int {
	h := t.HashProj(idx)
	if b.m == nil {
		if i := b.smallFindProj(h, t, idx); i >= 0 {
			return b.small[i].n
		}
		return 0
	}
	for _, e := range b.m[h] {
		if t.keyEqualProj(idx, e.t) {
			return e.n
		}
	}
	return 0
}

// Total returns the sum of all counts.
func (b *Bag) Total() int {
	n := 0
	b.ForEach(func(_ Tuple, c int) { n += c })
	return n
}

// slowBagEqual is the string-keyed BagEqual (differential reference).
func (r *Relation) slowBagEqual(s *Relation) bool {
	if r.Arity() != s.Arity() || r.Len() != s.Len() {
		return false
	}
	counts := r.Counts()
	for _, t := range s.Tuples {
		k := t.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// slowSetEqual is the string-keyed SetEqual (differential reference).
func (r *Relation) slowSetEqual(s *Relation) bool {
	if r.Arity() != s.Arity() {
		return false
	}
	rs, ss := make(map[string]bool), make(map[string]bool)
	for _, t := range r.Tuples {
		rs[t.Key()] = true
	}
	for _, t := range s.Tuples {
		ss[t.Key()] = true
		if !rs[t.Key()] {
			return false
		}
	}
	for k := range rs {
		if !ss[k] {
			return false
		}
	}
	return true
}
