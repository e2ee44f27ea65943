package tupleclass

import (
	"testing"

	"qfe/internal/relation"
)

// TestPartitioningUnderForcedHashCollisions proves the tuple-class paths'
// collision-verification invariant: with kernel hashes truncated to 2 bits
// (values, tuples and Class hashes all collide constantly), the join's
// dictionary coding and SourceClasses grouping must reproduce the
// untruncated results exactly — value and class equality are always
// verified.
func TestPartitioningUnderForcedHashCollisions(t *testing.T) {
	buildKeys := func() ([]string, [][]int) {
		s := example51Space(t)
		scs := s.SourceClasses()
		keys := make([]string, len(scs))
		rows := make([][]int, len(scs))
		for i, sc := range scs {
			keys[i] = sc.Key
			rows[i] = sc.Rows
		}
		return keys, rows
	}

	wantKeys, wantRows := buildKeys()

	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)

	gotKeys, gotRows := buildKeys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("collided partitioning has %d classes, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("class %d key diverges under collisions: %q vs %q", i, gotKeys[i], wantKeys[i])
		}
		if len(gotRows[i]) != len(wantRows[i]) {
			t.Fatalf("class %d row count diverges", i)
		}
		for j := range wantRows[i] {
			if gotRows[i][j] != wantRows[i][j] {
				t.Fatalf("class %d rows diverge: %v vs %v", i, gotRows[i], wantRows[i])
			}
		}
	}
}
