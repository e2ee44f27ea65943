package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qfe/internal/relation"
)

// This file is the differential harness for the block-parallel batch
// evaluator: batchEvaluate at every worker count and block size must be
// byte-identical to the scalar reference path and to the one-worker run.
// Block sizes are driven through the unexported batchEvaluate entry so tests
// can force tiny (64-row) blocks and row counts that straddle the block
// boundary — rows % block ∈ {0, 1, block-1} — where a mis-merged bitmap
// word or a misaligned materialisation offset would actually bite.

// randBatchRelationN builds a relation with exactly n rows from the shared
// tuple generator, so tests can pin row counts to block-boundary cases.
func randBatchRelationN(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("T", propSchema)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, randBatchTuple(rng))
	}
	return r
}

// checkBlockParallel evaluates a random batch against a relation of the
// given size with the given worker count and block size, comparing every
// result to the scalar evaluation.
func checkBlockParallel(t *testing.T, rng *rand.Rand, rows, workers, blockRows int) bool {
	t.Helper()
	rel := randBatchRelationN(rng, rows)
	qs := randBatch(rng)
	// At least one DISTINCT query per batch: DISTINCT shares the dedup path
	// with selection-vector dedup and must survive block-parallel scans.
	qs[0] = qs[0].Clone()
	qs[0].Distinct = true
	col := relation.NewColumnar(rel)

	batch, err := batchEvaluate(qs, col, workers, blockRows)
	if err != nil {
		t.Logf("rows=%d workers=%d block=%d: batch evaluate: %v", rows, workers, blockRows, err)
		return false
	}
	for qi, q := range qs {
		scalar, err := q.EvaluateOnJoined(rel)
		if err != nil {
			t.Logf("scalar evaluate %s: %v", q.Name, err)
			return false
		}
		if err := relIdentical(batch[qi], scalar); err != nil {
			t.Logf("rows=%d workers=%d block=%d query %s (%s): diverges: %v\nbatch:  %v\nscalar: %v",
				rows, workers, blockRows, q.Name, q.SQL(), err, batch[qi].Tuples, scalar.Tuples)
			return false
		}
	}
	return true
}

// TestBatchEvaluateBlockBoundaries sweeps the exact row counts where block
// tiling can go wrong — multiples of the block size plus remainders 0, 1 and
// block-1, plus the empty and single-row relations — across worker counts
// 1, 2, 4 and 8 with the minimum (64-row) block.
func TestBatchEvaluateBlockBoundaries(t *testing.T) {
	const block = 64
	rows := []int{0, 1, block - 1, block, block + 1,
		2*block - 1, 2 * block, 2*block + 1, 3*block - 1}
	rng := rand.New(rand.NewSource(64646464))
	for _, n := range rows {
		for _, workers := range []int{1, 2, 4, 8} {
			if !checkBlockParallel(t, rng, n, workers, block) {
				t.Fatalf("rows=%d workers=%d: block-parallel batch diverged", n, workers)
			}
		}
	}
}

// TestBatchEvaluateBlockParallelQuick is the property form: random row
// counts (biased toward block boundaries), random worker counts and block
// sizes, batch vs scalar.
func TestBatchEvaluateBlockParallelQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(88238823))
	err := quick.Check(func(s int64) bool {
		r := rand.New(rand.NewSource(s ^ 0x9e3779b9))
		block := 64 * (1 + r.Intn(3)) // 64, 128, 192
		n := r.Intn(3 * block)
		if r.Intn(2) == 0 { // half the draws sit exactly on a boundary ± 1
			n = block*(1+r.Intn(2)) + []int{-1, 0, 1}[r.Intn(3)]
		}
		workers := 1 + r.Intn(8)
		return checkBlockParallel(t, rng, n, workers, block)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchEvaluateBlockParallelForcedCollisions repeats the boundary sweep
// with the hash kernel truncated to 2 bits, so dictionary builds and
// DISTINCT/selection dedup constantly take their collision-verification
// scans while blocks run concurrently.
func TestBatchEvaluateBlockParallelForcedCollisions(t *testing.T) {
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	const block = 64
	rng := rand.New(rand.NewSource(271828))
	for _, n := range []int{block - 1, block, block + 1, 2 * block} {
		for _, workers := range []int{1, 2, 4, 8} {
			if !checkBlockParallel(t, rng, n, workers, block) {
				t.Fatalf("rows=%d workers=%d: diverged under forced collisions", n, workers)
			}
		}
	}
}

// TestBatchEvaluateParallelMatchesSerialBatch pins the public entry at
// several worker counts against its one-worker run on a relation large
// enough for several production-sized blocks per worker.
func TestBatchEvaluateParallelMatchesSerialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5050))
	rel := randBatchRelationN(rng, 10_000)
	qs := randBatch(rng)
	col := relation.NewColumnar(rel)
	serial, err := BatchEvaluateOnJoined(qs, col, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := BatchEvaluateOnJoined(qs, col, workers)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range qs {
			if err := relIdentical(par[qi], serial[qi]); err != nil {
				t.Fatalf("workers=%d query %s: %v", workers, qs[qi].Name, err)
			}
		}
	}
}

// TestBatchEvaluateOddBlockRowsRoundedUp documents that batchEvaluate rounds
// block sizes up to a whole number of bitmap words: a 1-row "block" must
// behave as a 64-row block, never splitting a word between workers.
func TestBatchEvaluateOddBlockRowsRoundedUp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, blockRows := range []int{1, 63, 65, 100} {
		if !checkBlockParallel(t, rng, 130, 4, blockRows) {
			t.Fatalf("blockRows=%d: rounded block evaluation diverged", blockRows)
		}
	}
}
