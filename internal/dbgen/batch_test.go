package dbgen

import (
	"reflect"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
	"qfe/internal/testref"
)

// checkBaseResultsMatchScalar compares a generator's batch-computed base
// results against per-query scalar evaluation — the batch engine's
// differential oracle at the dbgen integration layer.
func checkBaseResultsMatchScalar(t *testing.T, g *Generator) {
	t.Helper()
	rel := g.Joined.Relation()
	for i, q := range g.Queries {
		ref := q
		if q.Distinct {
			bag := q.Clone()
			bag.Distinct = false
			ref = bag
		}
		direct, err := ref.EvaluateOnJoined(rel)
		if err != nil {
			t.Fatal(err)
		}
		got := g.baseResults[i]
		if got.Name != direct.Name || got.Len() != direct.Len() {
			t.Fatalf("query %s: base result shape differs: %q/%d vs %q/%d",
				q.Name, got.Name, got.Len(), direct.Name, direct.Len())
		}
		for ti := range got.Tuples {
			if !got.Tuples[ti].Equal(direct.Tuples[ti]) {
				t.Fatalf("query %s tuple %d: %v vs %v", q.Name, ti,
					got.Tuples[ti], direct.Tuples[ti])
			}
		}
	}
}

// TestEvaluateBaseBatchMatchesScalar asserts the batched base evaluation is
// byte-identical to the scalar reference, with and without forced hash
// collisions (which stress the columnar dictionary and the selection-vector
// dedup verification).
func TestEvaluateBaseBatchMatchesScalar(t *testing.T) {
	for _, bits := range []int{0, 2} {
		relation.ForceHashCollisionsForTesting(bits)
		d, j, qc, r := example11(t)
		g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
		if err != nil {
			relation.ForceHashCollisionsForTesting(0)
			t.Fatal(err)
		}
		checkBaseResultsMatchScalar(t, g)
		relation.ForceHashCollisionsForTesting(0)
	}
}

// TestPartitionConcreteBatchMatchesScalar drives one concrete partitioning
// through the batch delta path and cross-checks every query's delta against
// the scalar testref.DeltaOnJoined, and the partition against grouping the
// queries by their scalar DeltaFingerprint in query order.
func TestPartitionConcreteBatchMatchesScalar(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	modified, err := g.modifiedJoinedRows(res.Edits)
	if err != nil {
		t.Fatal(err)
	}
	batchDeltas, err := algebra.BatchDeltaOnJoined(g.Queries, g.Joined.Columnar(), modified)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	block := map[algebra.ResultFP]int{}
	rel := g.Joined.Relation()
	for qi, q := range g.Queries {
		removed, added, err := testref.DeltaOnJoined(rel, modified, q.Pred.Compile(rel.Schema), q.Projection)
		if err != nil {
			t.Fatal(err)
		}
		scalar := algebra.ResultDelta{Removed: removed, Added: added}
		if !reflect.DeepEqual(batchDeltas[qi], scalar) {
			t.Errorf("query %s: batch delta %+v, scalar %+v", q.Name, batchDeltas[qi], scalar)
		}
		fp := q.DeltaFingerprint(g.baseResults[qi], scalar)
		bi, ok := block[fp]
		if !ok {
			bi = len(want)
			block[fp] = bi
			want = append(want, nil)
		}
		want[bi] = append(want[bi], qi)
	}
	parts, _, _, err := g.partitionConcrete(res.Edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("partition %v, scalar grouping %v", parts, want)
	}
}

// TestGenerateDeterministicAcrossWorkerCounts runs the full Algorithm 2
// pipeline — candidate evaluation through the batch engine — at several
// worker counts and requires bit-identical outcomes.
func TestGenerateDeterministicAcrossWorkerCounts(t *testing.T) {
	d, j, qc, r := example11(t)
	ref, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Edits, want.Edits) {
			t.Errorf("workers %d: edits differ: %v vs %v", workers, got.Edits, want.Edits)
		}
		if !reflect.DeepEqual(got.Partition, want.Partition) {
			t.Errorf("workers %d: partitions differ: %v vs %v", workers, got.Partition, want.Partition)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("workers %d: result counts differ", workers)
		}
		for i := range got.Results {
			if !got.Results[i].BagEqual(want.Results[i]) {
				t.Errorf("workers %d: result %d differs", workers, i)
			}
		}
	}
}
