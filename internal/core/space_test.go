package core

import (
	"errors"
	"reflect"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/qbo"
	"qfe/internal/scenario"
)

// TestFirstRoundFromMergeSpace checks that a group's first round built on
// the Space beginGroup merged the group over equals the round a generator
// on a fresh Space produces: the same edits, pairs, partition, results and
// costs. The instances are the paper's and the first 40 scenarios of corpus
// seed 1. qbo's candidate sets mostly hold candidates the merge joins, so
// each instance's session runs on the representatives a first session's
// merge kept, which the merge cannot join again, and whose first round
// therefore takes the merge's Space. The test counts those rounds, so it
// cannot pass vacuously.
func TestFirstRoundFromMergeSpace(t *testing.T) {
	scs, err := scenario.Curated()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := scenario.GenerateCorpus(1, 40, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs, corpus...)
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = 32
	cfg := DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
	cfg.Parallelism = 1
	start := func(qc []*algebra.Query, sc *scenario.Scenario) *Session {
		s, err := NewStepSession(sc.DB, sc.R, qc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	handed := 0
	for _, sc := range scs {
		qc, err := qbo.Generate(sc.DB, sc.R, qcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(qc) < 2 {
			continue
		}
		reps := start(qc, sc).reps
		if len(reps) < 2 {
			continue
		}
		s := start(reps, sc)
		if len(s.reps) != len(reps) {
			t.Fatalf("%s: the merge of %d representatives kept %d", sc.Name, len(reps), len(s.reps))
		}
		handed++
		joined, err := db.Join(sc.DB, reps[0].Tables)
		if err != nil {
			t.Fatal(err)
		}
		space, err := dbgen.NewSpace(joined, reps)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := dbgen.New(db.NewKeys(sc.DB), joined, space, sc.R, cfg.Gen, cfg.Parallelism)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gen.Generate()
		switch {
		case s.pending == nil && !errors.Is(err, dbgen.ErrNoSplit):
			t.Errorf("%s: no first round on the merge's Space, a fresh Space gives %v", sc.Name, err)
		case s.pending == nil:
		case err != nil:
			t.Fatal(err)
		case !reflect.DeepEqual(untimed(s.pendingRes), untimed(want)):
			t.Errorf("%s: first round on the merge's Space differs from one on a fresh Space", sc.Name)
		}
	}
	if handed < 10 {
		t.Fatalf("only %d first rounds took the merge's Space", handed)
	}
	t.Logf("%d first rounds took the merge's Space", handed)
}

// untimed copies a round's result without its wall-clock stage times.
func untimed(r *dbgen.Result) dbgen.Result {
	c := *r
	c.Alg3Time, c.Alg4Time, c.ConcretizeTime = 0, 0, 0
	c.Alg4EnumTime, c.Alg4ScoreTime, c.Alg4TopKTime = 0, 0, 0
	return c
}
