// Package testref holds reference implementations that the tests of more
// than one package compare the product code against. Only _test.go files
// import it (scripts/reachable checks this), and it imports no package
// above relation, so the tests inside any other package can use it.
package testref

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/relation"
)

// Fingerprint is the canonical string of r's bag of tuples: its sorted
// tuple keys, one per line. Two relations share it exactly when they are
// BagEqual, so tests use it to build readable signatures of results.
func Fingerprint(r *relation.Relation) string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// DeltaOnJoined is the scalar evaluator of Lemma 5.1, the reference for
// algebra.BatchDeltaOnJoined: the projected tuples a query's result loses
// and gains when the joined rows at the keys of modified are replaced by
// their values, without re-running the join. match is the query's
// predicate compiled on joined's schema, and proj its projection. Rows are
// visited in ascending index.
func DeltaOnJoined(joined *relation.Relation, modified map[int]relation.Tuple, match func(relation.Tuple) bool, proj []string) (removed, added []relation.Tuple, err error) {
	projIdx := make([]int, len(proj))
	for i, n := range proj {
		j := joined.Schema.IndexOf(n)
		if j < 0 {
			return nil, nil, fmt.Errorf("no column %q in join", n)
		}
		projIdx[i] = j
	}
	rows := make([]int, 0, len(modified))
	for r := range modified {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		if r < 0 || r >= joined.Len() {
			return nil, nil, fmt.Errorf("row %d out of range", r)
		}
		oldT, newT := joined.Tuples[r], modified[r]
		oldIn, newIn := match(oldT), match(newT)
		switch {
		case oldIn && newIn:
			ox, nx := oldT.Project(projIdx), newT.Project(projIdx)
			if !ox.Equal(nx) {
				removed = append(removed, ox)
				added = append(added, nx)
			}
		case oldIn:
			removed = append(removed, oldT.Project(projIdx))
		case newIn:
			added = append(added, newT.Project(projIdx))
		}
	}
	return removed, added, nil
}
