package relation_test

import (
	"testing"

	"qfe/internal/db"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// TestSortedDomainsOnPaperJoins checks that every column's dictionary, read
// in SortedCodes order, is the row-at-a-time ActiveDomain on every join the
// paper workload winnows (the join schemas of each curated instance's qbo
// candidates at cap 32) — also under forced hash collisions.
func TestSortedDomainsOnPaperJoins(t *testing.T) {
	scs, err := scenario.Curated()
	if err != nil {
		t.Fatal(err)
	}
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = 32
	type join struct {
		d      *db.Database
		tables []string
	}
	var joins []join
	seen := map[string]bool{}
	for _, sc := range scs {
		qc, err := qbo.Generate(sc.DB, sc.R, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qc {
			if k := sc.Name + "|" + q.JoinSchemaKey(); !seen[k] {
				seen[k] = true
				joins = append(joins, join{sc.DB, q.Tables})
			}
		}
	}
	check := func() {
		for _, jn := range joins {
			j, err := db.Join(jn.d, jn.tables)
			if err != nil {
				t.Fatal(err)
			}
			rel := j.Relation()
			c := relation.NewColumnar(rel)
			for ci, col := range rel.Schema {
				if got, want := c.SortedDomain(ci), rel.ActiveDomain(col.Name); !relation.SameValues(got, want) {
					t.Fatalf("%s: sorted dictionary of %d values differs from the %d-value active domain",
						col.Name, len(got), len(want))
				}
			}
		}
	}
	check()
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	check()
}
