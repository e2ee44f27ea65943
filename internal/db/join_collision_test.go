package db

import (
	"testing"

	"qfe/internal/relation"
)

// TestJoinUnderForcedHashCollisions proves the hash join's collision-
// verification invariant: with every kernel hash truncated to 2 bits, rows
// with unequal join keys routinely share index buckets, yet the join must
// produce exactly the tuples and provenance of the untruncated run —
// equality of join columns is always verified value-by-value.
func TestJoinUnderForcedHashCollisions(t *testing.T) {
	d := twoTableDB(t)

	want, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}

	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)

	got, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("collided join has %d tuples, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Row(i), want.Row(i); !g.Equal(w) {
			t.Fatalf("tuple %d diverges under collisions: %v vs %v", i, g, w)
		}
		for k := range want.Tables {
			if got.BaseRow(i, k) != want.BaseRow(i, k) {
				t.Fatalf("provenance %d diverges on %s: %d vs %d",
					i, want.Tables[k], got.BaseRow(i, k), want.BaseRow(i, k))
			}
		}
	}
}
