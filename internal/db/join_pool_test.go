package db

import (
	"sync"
	"testing"
)

// TestJoinArenaPoolingIsObservationallyPure re-runs the same joins many
// times — the shape of the β/δ sweeps and the simulator, where the fold
// pools actually cycle — and requires every run to reproduce the first
// run's joined relation, provenance and columnar view exactly. A pooled
// buffer leaking live data into a later join would surface here.
func TestJoinArenaPoolingIsObservationallyPure(t *testing.T) {
	d := twoTableDB(t)
	first, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := first.Rel.Fingerprint()
	wantCols := first.Columnar()
	for run := 0; run < 50; run++ {
		j, err := JoinAll(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Rel.Fingerprint(); got != wantFP {
			t.Fatalf("run %d: joined relation diverged", run)
		}
		if len(j.Prov) != len(first.Prov) {
			t.Fatalf("run %d: provenance length diverged", run)
		}
		for i := range j.Prov {
			for k := range j.Prov[i] {
				if j.Prov[i][k] != first.Prov[i][k] {
					t.Fatalf("run %d: provenance row %d diverged", run, i)
				}
			}
		}
		col := j.Columnar()
		if col.NumRows() != wantCols.NumRows() {
			t.Fatalf("run %d: columnar row count diverged", run)
		}
	}
	// The first join's tuples must still be intact after its arenas' peers
	// cycled through the pools 50 times (final arenas are never recycled).
	if got := first.Rel.Fingerprint(); got != wantFP {
		t.Fatal("original join corrupted by later pooled joins")
	}
}

// TestJoinArenaPoolingConcurrent hammers the fold pools from many
// goroutines; run under -race this checks the pools introduce no sharing
// between concurrent joins.
func TestJoinArenaPoolingConcurrent(t *testing.T) {
	d := twoTableDB(t)
	want := ""
	{
		j, err := JoinAll(d)
		if err != nil {
			t.Fatal(err)
		}
		want = j.Rel.Fingerprint()
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := JoinAll(d)
				if err != nil {
					errs[w] = err.Error()
					return
				}
				if j.Rel.Fingerprint() != want {
					errs[w] = "fingerprint diverged"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}

// TestColumnarConcurrentSharedJoin races many goroutines into one Joined's
// memoised Columnar() — the access pattern of concurrent batch evaluations
// over one shared join. All callers must observe the same fully-built view
// (sync.Once publication), with pooled join arenas cycling underneath.
func TestColumnarConcurrentSharedJoin(t *testing.T) {
	d := twoTableDB(t)
	j, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	cols := make([]any, 16)
	for w := 0; w < len(cols); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Churn the fold pools concurrently so a pooled-arena bug could
			// only surface as divergence in the shared view.
			if _, err := JoinAll(d); err != nil {
				t.Error(err)
				return
			}
			col := j.Columnar()
			if col.NumRows() != j.Rel.Len() {
				t.Errorf("worker %d: columnar has %d rows, join has %d",
					w, col.NumRows(), j.Rel.Len())
			}
			cols[w] = col
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(cols); w++ {
		if cols[w] != cols[0] {
			t.Errorf("worker %d saw a different columnar view", w)
		}
	}
}
