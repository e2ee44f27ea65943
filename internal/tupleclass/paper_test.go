package tupleclass

import (
	"reflect"
	"sort"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// paperGroup is one join-schema group of the paper workload: a curated
// instance's qbo candidates (cap 32, as the service generates them) that
// share a join, and that join's database.
type paperGroup struct {
	name string
	d    *db.Database
	qc   []*algebra.Query
}

func paperGroups(t *testing.T) []paperGroup {
	t.Helper()
	scs, err := scenario.Curated()
	if err != nil {
		t.Fatal(err)
	}
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = 32
	var out []paperGroup
	for _, sc := range scs {
		qc, err := qbo.Generate(sc.DB, sc.R, cfg)
		if err != nil {
			t.Fatal(err)
		}
		byJoin := map[string]int{}
		for _, q := range qc {
			k := q.JoinSchemaKey()
			gi, ok := byJoin[k]
			if !ok {
				gi = len(out)
				byJoin[k] = gi
				out = append(out, paperGroup{name: sc.Name + " " + k, d: sc.DB})
			}
			out[gi].qc = append(out[gi].qc, q)
		}
	}
	return out
}

// refSourceClasses is the row-at-a-time reference for SourceClasses and
// Freeze: every joined row (rows, the join's materialised tuples)
// classified value by value through ClassOf, grouped by class in key order,
// plus each partition's realized subsets.
func refSourceClasses(t *testing.T, s *Space, rows []relation.Tuple) ([]SourceClass, [][]int) {
	t.Helper()
	byKey := map[string]*SourceClass{}
	realized := make([]map[int]bool, len(s.Parts))
	for i := range realized {
		realized[i] = map[int]bool{}
	}
	for row, tup := range rows {
		c, err := s.ClassOf(tup)
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range c {
			realized[i][sub] = true
		}
		sc := byKey[c.Key()]
		if sc == nil {
			sc = &SourceClass{Class: c, Key: c.Key()}
			byKey[c.Key()] = sc
		}
		sc.Rows = append(sc.Rows, row)
	}
	out := make([]SourceClass, 0, len(byKey))
	for _, sc := range byKey {
		out = append(out, *sc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	subs := make([][]int, len(realized))
	for i, m := range realized {
		subs[i] = []int{}
		for sub := range m {
			subs[i] = append(subs[i], sub)
		}
		sort.Ints(subs[i])
	}
	return out, subs
}

// TestCodeClassesMatchRowReference checks, on every join-schema group of
// the paper workload, that the classes SourceClasses reads off the join's
// dictionary codes, and the realized subsets Freeze reads off them, equal
// the row-at-a-time reference — also when the join's dictionaries are built
// under forced hash collisions. It also counts the groups where Freeze
// recorded realized subsets, so the second check cannot pass vacuously.
func TestCodeClassesMatchRowReference(t *testing.T) {
	groups := paperGroups(t)
	if len(groups) < 9 {
		t.Fatalf("only %d join-schema groups over the paper instances", len(groups))
	}
	frozen := 0
	check := func(g paperGroup) {
		j, err := db.Join(g.d, g.qc[0].Tables)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSpace(j.Columnar(), g.qc)
		if err != nil {
			t.Fatal(err)
		}
		s.Freeze(j.KeyCols)
		want, wantRealized := refSourceClasses(t, s, j.Relation().Tuples)
		if got := s.SourceClasses(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d code classes differ from the %d row-reference classes",
				g.name, len(got), len(want))
		}
		// Freeze records realized subsets only when a join key is a
		// predicate attribute.
		if s.realized != nil {
			frozen++
			if !reflect.DeepEqual(s.realized, wantRealized) {
				t.Fatalf("%s: realized subsets %v, reference %v", g.name, s.realized, wantRealized)
			}
		}
	}
	for _, g := range groups {
		check(g)
	}
	if frozen == 0 {
		t.Fatal("no paper group freezes a predicate attribute")
	}
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	for _, g := range groups {
		check(g)
	}
}
