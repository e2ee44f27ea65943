package algebra

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"qfe/internal/relation"
)

// This file pins the batch evaluator where its bit vectors can go wrong and
// under the concurrency that remains. Row counts sit on bitmap-word
// boundaries — rows % 64 ∈ {0, 1, 63}, plus the empty and single-row
// relations — where a bit set past the last row, or a word dropped at the
// end, would change a result. Several goroutines evaluate over one shared
// Columnar, because sessions share memoised joins.

// randBatchRelationN builds a relation with exactly n rows from the shared
// tuple generator, so tests can pin row counts to word-boundary cases.
func randBatchRelationN(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("T", propSchema)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, randBatchTuple(rng))
	}
	return r
}

// wordBoundaryRows are the row counts whose last bitmap word is empty, full,
// holds one row, or lacks one.
var wordBoundaryRows = []int{0, 1, 63, 64, 65, 127, 128, 129, 191}

// checkBatchRows evaluates a random batch, one query of it DISTINCT, against
// a random relation of the given size, comparing every result to the
// scalar evaluation.
func checkBatchRows(t *testing.T, rng *rand.Rand, rows int) bool {
	t.Helper()
	rel := randBatchRelationN(rng, rows)
	qs := randBatch(rng)
	qs[0] = qs[0].Clone()
	qs[0].Distinct = true
	batch, err := BatchEvaluateOnJoined(qs, relation.NewColumnar(rel))
	if err != nil {
		t.Logf("rows=%d: batch evaluate: %v", rows, err)
		return false
	}
	for qi, q := range qs {
		scalar, err := q.EvaluateOnJoined(rel)
		if err != nil {
			t.Logf("scalar evaluate %s: %v", q.Name, err)
			return false
		}
		if err := relIdentical(batch[qi], scalar); err != nil {
			t.Logf("rows=%d query %s (%s): diverges: %v\nbatch:  %v\nscalar: %v",
				rows, q.Name, q.SQL(), err, batch[qi].Tuples, scalar.Tuples)
			return false
		}
	}
	return true
}

// TestBatchEvaluateBlockBoundaries sweeps the word-boundary row counts, a
// few random batches each.
func TestBatchEvaluateBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(64646464))
	for _, n := range wordBoundaryRows {
		for rep := 0; rep < 4; rep++ {
			if !checkBatchRows(t, rng, n) {
				t.Fatalf("rows=%d: batch diverged from scalar", n)
			}
		}
	}
}

// TestBatchEvaluateBlockParallelQuick is the property form: random row
// counts, half of them on a word boundary ± 1.
func TestBatchEvaluateBlockParallelQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(88238823))
	err := quick.Check(func(s int64) bool {
		r := rand.New(rand.NewSource(s ^ 0x9e3779b9))
		n := r.Intn(3 * 64)
		if r.Intn(2) == 0 {
			n = 64*(1+r.Intn(2)) + []int{-1, 0, 1}[r.Intn(3)]
		}
		return checkBatchRows(t, rng, n)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchEvaluateBlockParallelForcedCollisions repeats the boundary sweep
// with the hash kernel truncated to 2 bits, so dictionary builds and
// DISTINCT/selection dedup constantly take their collision-verification
// scans.
func TestBatchEvaluateBlockParallelForcedCollisions(t *testing.T) {
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	rng := rand.New(rand.NewSource(271828))
	for _, n := range wordBoundaryRows {
		if !checkBatchRows(t, rng, n) {
			t.Fatalf("rows=%d: diverged under forced collisions", n)
		}
	}
}

// TestBatchEvaluateParallelMatchesSerialBatch has several goroutines
// evaluate one batch over one fresh shared Columnar, so they also race to
// build its lazy dictionaries; each result must match a lone evaluation
// over a Columnar of its own.
func TestBatchEvaluateParallelMatchesSerialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5050))
	rel := randBatchRelationN(rng, 10_000)
	qs := randBatch(rng)
	lone, err := BatchEvaluateOnJoined(qs, relation.NewColumnar(rel))
	if err != nil {
		t.Fatal(err)
	}
	shared := relation.NewColumnar(rel)
	const goroutines = 8
	results := make([][]*relation.Relation, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = BatchEvaluateOnJoined(qs, shared)
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for qi := range qs {
			if err := relIdentical(results[g][qi], lone[qi]); err != nil {
				t.Fatalf("goroutine %d query %s: %v", g, qs[qi].Name, err)
			}
		}
	}
}

// TestBatchEvaluateOddBlockRowsRoundedUp evaluates queries that select every
// row at row counts that leave the last bitmap word partly used: each must
// return exactly the relation's rows, so no bit past the last row is ever
// selected, with and without a predicate and under DISTINCT.
func TestBatchEvaluateOddBlockRowsRoundedUp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	proj := []string{"T.a", "T.b", "T.c"}
	everyRow := Predicate{Conjunct{NewTerm("T.c", OpGE, relation.Int(0))}}
	qs := []*Query{
		{Name: "none", Tables: []string{"T"}, Projection: proj},
		{Name: "all", Tables: []string{"T"}, Projection: proj, Pred: everyRow},
		{Name: "distinct", Tables: []string{"T"}, Projection: []string{"T.b"}, Pred: everyRow, Distinct: true},
	}
	for _, n := range []int{1, 63, 65, 100, 127, 130} {
		rel := randBatchRelationN(rng, n)
		batch, err := BatchEvaluateOnJoined(qs, relation.NewColumnar(rel))
		if err != nil {
			t.Fatalf("rows=%d: %v", n, err)
		}
		for qi, q := range qs {
			scalar, err := q.EvaluateOnJoined(rel)
			if err != nil {
				t.Fatal(err)
			}
			if err := relIdentical(batch[qi], scalar); err != nil {
				t.Fatalf("rows=%d query %s: %v", n, q.Name, err)
			}
		}
		if got := batch[0].Len(); got != n {
			t.Fatalf("rows=%d: all-rows query returned %d rows", n, got)
		}
		if got := batch[1].Len(); got != n {
			t.Fatalf("rows=%d: every-row predicate returned %d rows", n, got)
		}
	}
}
