package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qfe/internal/relation"
)

// This file is the differential property test for the columnar batch
// engine: on randomized relations, query batches and edit sets, the batch
// APIs must be byte-identical to the scalar reference path
// (EvaluateOnJoined / DeltaOnJoined / ApplyDelta / DeltaFingerprint) —
// same tuples in the same order, same names, same fingerprints — including
// for DISTINCT candidates and under forced hash collisions, where the
// dictionary build and selection-vector dedup fall back to their
// verification scans.

// randBatchTuple draws tuples whose numeric cells sometimes hold integral
// floats, so the columnar dictionaries actually merge KeyEqual classes
// (Int(3) ≡ Float(3.0)) that the scalar path distinguishes only by Compare.
func randBatchTuple(rng *rand.Rand) relation.Tuple {
	num := func(n int) relation.Value {
		v := int64(rng.Intn(n))
		if rng.Intn(3) == 0 {
			return relation.Float(float64(v))
		}
		return relation.Int(v)
	}
	return relation.Tuple{
		num(7),
		relation.Str(propCats[rng.Intn(len(propCats))]),
		num(5),
	}
}

func randBatchRelation(rng *rand.Rand) *relation.Relation {
	r := relation.New("T", propSchema)
	n := rng.Intn(13)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, randBatchTuple(rng))
	}
	return r
}

// randBatch builds 2-8 queries over the relation's schema; roughly one in
// five is a structural duplicate of an earlier one so result sharing and
// selection-vector dedup both trigger.
func randBatch(rng *rand.Rand) []*Query {
	n := 2 + rng.Intn(7)
	qs := make([]*Query, 0, n)
	for i := 0; i < n; i++ {
		if len(qs) > 0 && rng.Intn(5) == 0 {
			dup := qs[rng.Intn(len(qs))].Clone()
			dup.Name = fmt.Sprintf("B%d", i)
			qs = append(qs, dup)
			continue
		}
		qs = append(qs, randQuery(rng, fmt.Sprintf("B%d", i)))
	}
	return qs
}

// relIdentical asserts stored-order, name and schema identity — stricter
// than BagEqual, because the batch engine promises byte-identical results.
func relIdentical(a, b *relation.Relation) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if !slices.Equal(a.Schema, b.Schema) {
		return fmt.Errorf("schema %v vs %v", a.Schema, b.Schema)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("len %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return fmt.Errorf("tuple %d: %v vs %v", i, a.Tuples[i], b.Tuples[i])
		}
	}
	return nil
}

func checkBatchEvaluate(t *testing.T, seed int64) {
	t.Helper()
	err := quick.Check(func(s int64) bool {
		rng := rand.New(rand.NewSource(seed ^ s))
		rel := randBatchRelation(rng)
		qs := randBatch(rng)
		col := relation.NewColumnar(rel)
		batch, err := BatchEvaluateOnJoined(qs, col)
		if err != nil {
			t.Logf("batch evaluate: %v", err)
			return false
		}
		for qi, q := range qs {
			scalar, err := q.EvaluateOnJoined(rel)
			if err != nil {
				t.Logf("scalar evaluate %s: %v", q.Name, err)
				return false
			}
			if err := relIdentical(batch[qi], scalar); err != nil {
				t.Logf("query %s (%s): batch diverges: %v\nbatch:  %v\nscalar: %v",
					q.Name, q.SQL(), err, batch[qi].Tuples, scalar.Tuples)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBatchEvaluateMatchesScalar(t *testing.T) {
	checkBatchEvaluate(t, 20150813)
}

func TestBatchEvaluateMatchesScalarForcedCollisions(t *testing.T) {
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	checkBatchEvaluate(t, 424242)
}

func deltasIdentical(a, b ResultDelta) error {
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return fmt.Errorf("sizes (-%d,+%d) vs (-%d,+%d)",
			len(a.Removed), len(a.Added), len(b.Removed), len(b.Added))
	}
	for i := range a.Removed {
		if !a.Removed[i].Equal(b.Removed[i]) {
			return fmt.Errorf("removed %d: %v vs %v", i, a.Removed[i], b.Removed[i])
		}
	}
	for i := range a.Added {
		if !a.Added[i].Equal(b.Added[i]) {
			return fmt.Errorf("added %d: %v vs %v", i, a.Added[i], b.Added[i])
		}
	}
	return nil
}

func checkBatchDelta(t *testing.T, seed int64) {
	t.Helper()
	err := quick.Check(func(s int64) bool {
		rng := rand.New(rand.NewSource(seed ^ s))
		rel := randBatchRelation(rng)
		if rel.Len() == 0 {
			return true
		}
		qs := randBatch(rng)
		modified := randEdits(rng, rel)

		batchDeltas, err := BatchDeltaOnJoined(qs, relation.NewColumnar(rel), modified)
		if err != nil {
			t.Logf("batch delta: %v", err)
			return false
		}
		// Bag-semantics bases, as dbgen stores them.
		bases := make([]*relation.Relation, len(qs))
		for qi, q := range qs {
			bagQ := q.Clone()
			bagQ.Distinct = false
			base, err := bagQ.EvaluateOnJoined(rel)
			if err != nil {
				t.Logf("base %s: %v", q.Name, err)
				return false
			}
			bases[qi] = base
		}
		for qi, q := range qs {
			scalarDelta, err := q.DeltaOnJoined(rel, modified)
			if err != nil {
				t.Logf("scalar delta %s: %v", q.Name, err)
				return false
			}
			if err := deltasIdentical(batchDeltas[qi], scalarDelta); err != nil {
				t.Logf("query %s (%s): batch delta diverges: %v", q.Name, q.SQL(), err)
				return false
			}
			// The incremental fingerprint of the batch delta must equal the
			// fingerprint of the scalar result, materialised.
			after := ApplyDelta(bases[qi], scalarDelta)
			if got, want := q.DeltaFingerprint(bases[qi], batchDeltas[qi]), q.DeltaFingerprint(after, ResultDelta{}); got != want {
				t.Logf("query %s: batch fingerprint %v, scalar %v", q.Name, got, want)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBatchDeltaMatchesScalar(t *testing.T) {
	checkBatchDelta(t, 977)
}

func TestBatchDeltaMatchesScalarForcedCollisions(t *testing.T) {
	relation.ForceHashCollisionsForTesting(1)
	defer relation.ForceHashCollisionsForTesting(0)
	checkBatchDelta(t, 1311)
}

// TestBatchEvaluateErrors pins the error path: a projection column missing
// from the join must fail just like the scalar evaluation does.
func TestBatchEvaluateErrors(t *testing.T) {
	rel := relation.New("T", propSchema)
	rel.Tuples = append(rel.Tuples, relation.Tuple{
		relation.Int(1), relation.Str("x"), relation.Int(2)})
	col := relation.NewColumnar(rel)
	good := &Query{Name: "G", Tables: []string{"T"}, Projection: []string{"T.a"}}
	bad := &Query{Name: "B", Tables: []string{"T"}, Projection: []string{"T.missing"}}
	if _, err := BatchEvaluateOnJoined([]*Query{good, bad}, col); err == nil {
		t.Error("missing projection column should error")
	}
	if _, err := BatchDeltaOnJoined([]*Query{good, bad}, col,
		map[int]relation.Tuple{0: rel.Tuples[0]}); err == nil {
		t.Error("missing projection column should error in batch delta")
	}
	if _, err := BatchDeltaOnJoined([]*Query{good}, col,
		map[int]relation.Tuple{5: rel.Tuples[0]}); err == nil {
		t.Error("out-of-range row should error in batch delta")
	}
}

// TestBatchEvaluateSharesStorage verifies that structurally identical
// candidates share one materialised tuple slice — the memory contract that
// makes one shared scan per partition block worthwhile.
func TestBatchEvaluateSharesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := randBatchRelation(rng)
	for rel.Len() == 0 {
		rel = randBatchRelation(rng)
	}
	q1 := randQuery(rng, "A")
	q2 := q1.Clone()
	q2.Name = "B"
	res, err := BatchEvaluateOnJoined([]*Query{q1, q2}, relation.NewColumnar(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Tuples) > 0 && &res[0].Tuples[0] != &res[1].Tuples[0] {
		t.Error("identical candidates should share materialised tuple storage")
	}
	if res[0].Name != "A" || res[1].Name != "B" {
		t.Errorf("names not preserved: %q, %q", res[0].Name, res[1].Name)
	}
}
