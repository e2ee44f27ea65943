package dbgen

import (
	"reflect"
	"runtime"
	"testing"
)

// withParallelism returns deterministic (pair-budgeted) options at the given
// worker count.
func withParallelism(p int) Options {
	o := testOptions()
	o.Parallelism = p
	return o
}

// TestSkylinePairsParallelMatchesSerial asserts that skyline enumeration on
// several workers reproduces the Parallelism 1 run exactly — same pairs in
// the same order, same statistics — when the budget does not truncate. Run
// under -race this also exercises the worker pool for data races.
func TestSkylinePairsParallelMatchesSerial(t *testing.T) {
	d, j, qc, r := example11(t)
	serial, err := New(d, j, qc, r, withParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	spS, statsS := serial.SkylinePairs()

	for _, p := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
		parallel, err := New(d, j, qc, r, withParallelism(p))
		if err != nil {
			t.Fatal(err)
		}
		spP, statsP := parallel.SkylinePairs()
		if !reflect.DeepEqual(spS, spP) {
			t.Errorf("parallelism %d: skyline differs\nserial:   %v\nparallel: %v", p, spS, spP)
		}
		if statsS != statsP {
			t.Errorf("parallelism %d: stats differ: serial %+v, parallel %+v", p, statsS, statsP)
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
		serial, err := New(d, j, qc, r, withParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		serial.Opts.MaxSetsEvaluated = maxEval
		spS, statsS := serial.SkylinePairs()
		setsS := serial.PickSubsets(spS, statsS.X)

		for _, p := range []int{2, 4, 8} {
			parallel, err := New(d, j, qc, r, withParallelism(p))
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
	serial, err := New(d, j, qc, r, withParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	resS, err := serial.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
		parallel, err := New(d, j, qc, r, withParallelism(p))
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
			if resS.Results[i].Fingerprint() != resP.Results[i].Fingerprint() {
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
