package db_test

import (
	"math/rand"
	"testing"

	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/scenario"
)

// TestKeysMatchValidateOnPaperData compares Keys.Valid with ApplyEdits +
// Validate on random edit sets over the three paper databases and the first
// scenarios of corpus seed 1. Every fourth base is first rewritten by a
// random edit set of its own, so some bases are already invalid. The edit
// sets mostly rewrite key columns (see EditsFromBytes): NULL references,
// key clashes and parent-key rewrites all occur.
func TestKeysMatchValidateOnPaperData(t *testing.T) {
	bases := []*db.Database{
		datasets.NewScientific().DB, datasets.NewBaseball().DB, datasets.NewAdult().DB,
	}
	corpus, err := scenario.GenerateCorpus(1, 40, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		bases = append(bases, sc.DB)
	}
	rng := rand.New(rand.NewSource(21))
	randomEdits := func(d *db.Database) []db.CellEdit {
		data := make([]byte, 5*(1+rng.Intn(6)))
		rng.Read(data)
		return db.EditsFromBytes(d, data)
	}
	var sets, invalidBases, rejected int
	for bi, d := range bases {
		if bi%4 == 3 {
			rewritten, err := d.ApplyEdits(randomEdits(d))
			if err != nil {
				continue
			}
			d = rewritten
			if d.Validate() != nil {
				invalidBases++
			}
		}
		keys := db.NewKeys(d)
		for i := 0; i < 60; i++ {
			edits := randomEdits(d)
			c, err := d.ApplyEdits(edits)
			want := err == nil && c.Validate() == nil
			if got := keys.Valid(edits); got != want {
				t.Fatalf("base %d: Valid(%v) = %v, copy and validate say %v", bi, edits, got, want)
			}
			sets++
			if !want {
				rejected++
			}
		}
	}
	if invalidBases == 0 || rejected == 0 || rejected == sets {
		t.Fatalf("vacuous run: %d sets, %d rejected, %d invalid bases", sets, rejected, invalidBases)
	}
	t.Logf("%d edit sets over %d bases (%d invalid), %d rejected", sets, len(bases), invalidBases, rejected)
}
