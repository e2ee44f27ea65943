package dbgen

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"qfe/internal/db"
	"qfe/internal/scenario"
)

// TestSkylinePairsParallelMatchesSerial asserts that skyline enumeration on
// several workers reproduces the one-worker run exactly — same pairs in the
// same order, same statistics — with no cut and under pair budgets that
// cut mid-class, at a class boundary and at a level's end, and on a
// generated scenario whose first round the 100,000-pair budget truncates.
// Run under -race this also exercises the worker pool for data races.
func TestSkylinePairsParallelMatchesSerial(t *testing.T) {
	d, j, qc, r := example11(t)
	ex, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.GenerateCorpus(1, 2, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen := firstRoundGenerator(t, sc[1])

	type budgetCase struct {
		name     string
		g        *Generator
		maxPairs int
	}
	cases := []budgetCase{{"example/uncut", ex, 0}, {sc[1].Name + "/100000", gen, 100000}}
	for _, b := range []budgetCase{{"example", ex, 0}, {sc[1].Name, gen, 0}} {
		// Level 1 cuts: every source class has perClass destinations.
		perClass := b.g.Space.CountClassesAt(1, math.MaxInt)
		if perClass < 2 || len(b.g.srcClasses) < 2 {
			t.Fatalf("%s: %d source classes of %d destinations: too few to cut",
				b.name, len(b.g.srcClasses), perClass)
		}
		cases = append(cases,
			budgetCase{b.name + "/class-boundary", b.g, perClass},
			budgetCase{b.name + "/mid-class", b.g, perClass + 1},
			budgetCase{b.name + "/level-end", b.g, len(b.g.srcClasses) * perClass})
	}
	for _, c := range cases {
		opts := c.g.Opts
		opts.Budget = Budget{MaxPairs: c.maxPairs}
		run := func(p int) ([]ScoredPair, SkylineStats) {
			g, err := newGenerator(c.g.Keys, c.g.Joined, c.g.Queries, c.g.R, opts, p)
			if err != nil {
				t.Fatal(err)
			}
			return g.SkylinePairs()
		}
		spS, statsS := run(1)
		if cut := c.maxPairs > 0; statsS.Truncated != cut || (cut && statsS.Enumerated != c.maxPairs) {
			t.Fatalf("%s: serial stats %+v, want truncated=%v at %d pairs", c.name, statsS, cut, c.maxPairs)
		}
		for _, p := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
			spP, statsP := run(p)
			if !reflect.DeepEqual(spS, spP) {
				t.Errorf("%s parallelism %d: skyline differs\nserial:   %v\nparallel: %v", c.name, p, spS, spP)
			}
			if statsS != statsP {
				t.Errorf("%s parallelism %d: stats differ: serial %+v, parallel %+v", c.name, p, statsS, statsP)
			}
		}
	}
}

// TestPickSubsetsParallelMatchesSerial asserts Algorithm 4 returns the same
// ranked candidate sets at every parallelism level — the pipelined
// enumerate → score → replay stages must be invisible to results — including
// when the evaluation budget truncates the search mid-level (the budget cuts
// enumeration, so a pipeline that scored eagerly past the cut would diverge).
func TestPickSubsetsParallelMatchesSerial(t *testing.T) {
	d, j, qc, r := example11(t)
	for _, maxEval := range []int{0, 7, 2} { // 0 = uncapped; small caps truncate
		serial, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 1)
		if err != nil {
			t.Fatal(err)
		}
		serial.Opts.MaxSetsEvaluated = maxEval
		spS, statsS := serial.SkylinePairs()
		setsS := serial.PickSubsets(spS, statsS.X)

		for _, p := range []int{2, 4, 8} {
			parallel, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), p)
			if err != nil {
				t.Fatal(err)
			}
			parallel.Opts.MaxSetsEvaluated = maxEval
			spP, statsP := parallel.SkylinePairs()
			setsP := parallel.PickSubsets(spP, statsP.X)

			if !reflect.DeepEqual(setsS, setsP) {
				t.Errorf("maxEval %d parallelism %d: candidate sets differ\nserial:   %+v\nparallel: %+v",
					maxEval, p, setsS, setsP)
			}
		}
	}
}

// TestGenerateParallelMatchesSerial runs the whole Algorithm 2 pipeline at
// worker counts 2, 4, 8 and GOMAXPROCS against the serial reference and
// compares everything deterministic about the result: edits, partition,
// result-relation fingerprints and costs. This is the end-to-end half of
// the determinism matrix — the per-stage halves live in the skyline and
// PickSubsets tests above.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	d, j, qc, r := example11(t)
	serial, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := serial.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
		parallel, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), p)
		if err != nil {
			t.Fatal(err)
		}
		resP, err := parallel.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resS.Edits, resP.Edits) {
			t.Errorf("parallelism %d: edits differ: %v vs %v", p, resS.Edits, resP.Edits)
		}
		if !reflect.DeepEqual(resS.Partition, resP.Partition) {
			t.Errorf("parallelism %d: partitions differ: %v vs %v", p, resS.Partition, resP.Partition)
		}
		if len(resS.Results) != len(resP.Results) {
			t.Fatalf("parallelism %d: result counts differ: %d vs %d",
				p, len(resS.Results), len(resP.Results))
		}
		for i := range resS.Results {
			if !resS.Results[i].BagEqual(resP.Results[i]) {
				t.Errorf("parallelism %d: result %d differs:\n%v\nvs\n%v",
					p, i, resS.Results[i], resP.Results[i])
			}
		}
		if resS.DBCost != resP.DBCost || resS.ResultCost != resP.ResultCost {
			t.Errorf("parallelism %d: costs differ: (%d,%d) vs (%d,%d)",
				p, resS.DBCost, resS.ResultCost, resP.DBCost, resP.ResultCost)
		}
	}
}
