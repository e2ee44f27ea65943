package db_test

import (
	"testing"

	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// TestJoinMatchesFold checks Join against the row-copying reference fold
// (FoldMismatch: tuples, provenance, key columns, the reverse index and
// every column's codes, dictionary and sorted codes) on every connected
// table subset, in both orders, of the three paper databases and of the
// first 200 scenarios of corpus seeds 1 and 3 — once as they are, and once
// with every hash truncated to 2 bits, so unequal keys share buckets and
// only KeyEqual tells them apart.
func TestJoinMatchesFold(t *testing.T) {
	bases := []*db.Database{
		datasets.NewScientific().DB, datasets.NewBaseball().DB, datasets.NewAdult().DB,
	}
	for _, seed := range []int64{1, 3} {
		corpus, err := scenario.GenerateCorpus(seed, 200, scenario.DefaultGenOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range corpus {
			bases = append(bases, sc.DB)
		}
	}
	check := func(collisionBits int) {
		joins := 0
		for bi, d := range bases {
			for _, tables := range db.JoinOrders(d) {
				if msg := db.FoldMismatch(d, tables); msg != "" {
					t.Fatalf("collision bits %d, database %d, join of %v: %s", collisionBits, bi, tables, msg)
				}
				joins++
			}
		}
		t.Logf("collision bits %d: %d joins match the reference fold", collisionBits, joins)
	}
	check(0)
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	check(2)
}
