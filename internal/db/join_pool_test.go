package db

import (
	"slices"
	"sync"
	"testing"

	"qfe/internal/relation"
)

// TestJoinArenaPoolingIsObservationallyPure re-runs the same joins many
// times — the shape of the β/δ sweeps and the simulator — and requires
// every run to reproduce the first run's tuples, provenance and column
// codes exactly, and the first join to stay intact: a join shares nothing
// mutable with a later one.
func TestJoinArenaPoolingIsObservationallyPure(t *testing.T) {
	d := twoTableDB(t)
	first, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Relation()
	same := func(j *Joined) bool {
		if j.Len() != first.Len() || !j.Relation().BagEqual(want) {
			return false
		}
		for i := 0; i < j.Len(); i++ {
			for k := range j.Tables {
				if j.BaseRow(i, k) != first.BaseRow(i, k) {
					return false
				}
			}
		}
		for ci := range j.Schema() {
			if !slices.Equal(j.Columnar().Col(ci).Codes, first.Columnar().Col(ci).Codes) {
				return false
			}
		}
		return true
	}
	for run := 0; run < 50; run++ {
		j, err := JoinAll(d)
		if err != nil {
			t.Fatal(err)
		}
		if !same(j) {
			t.Fatalf("run %d: join diverged from the first", run)
		}
	}
	if !first.Relation().BagEqual(want) {
		t.Fatal("original join corrupted by later joins")
	}
}

// TestJoinArenaPoolingConcurrent has 8 goroutines join one database while
// they all read one shared join's rows, cells, provenance, reverse index
// and columnar view; run under -race this checks that joins share no
// mutable state and that a join's lazily built parts are safe for
// concurrent readers.
func TestJoinArenaPoolingConcurrent(t *testing.T) {
	d := twoTableDB(t)
	shared, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	wantRel := want.Relation()
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
				if !j.Relation().BagEqual(wantRel) || !shared.Relation().BagEqual(wantRel) {
					errs[w] = "rows diverged"
					return
				}
				col := shared.Columnar()
				for r := 0; r < shared.Len(); r++ {
					if !shared.Row(r).Equal(want.Row(r)) || shared.FanOut("T1", shared.BaseRow(r, 0)) < 1 {
						errs[w] = "row or provenance diverged"
						return
					}
					for ci := range shared.Schema() {
						cd := col.Col(ci)
						if !cd.Dict[cd.Codes[r]].KeyEqual(col.Cell(r, ci)) {
							errs[w] = "code does not resolve to its cell"
							return
						}
					}
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
// Columnar() — the access pattern of concurrent batch evaluations over one
// shared join — with other joins of the same database running alongside.
// Each worker copies the codes and dictionary of one column, building it
// and its base column on first access; every copy must equal the encoding
// of that column over a fresh join's rows, built serially.
func TestColumnarConcurrentSharedJoin(t *testing.T) {
	d := twoTableDB(t)
	j, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]relation.ColumnDict, 16)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := JoinAll(d); err != nil {
				t.Error(err)
				return
			}
			cd := j.Columnar().Col(w % len(j.Schema()))
			got[w] = relation.ColumnDict{Codes: slices.Clone(cd.Codes), Dict: slices.Clone(cd.Dict)}
		}(w)
	}
	wg.Wait()
	fresh, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	serial := relation.NewColumnar(fresh.Relation())
	for w, cd := range got {
		ci := w % len(j.Schema())
		want := serial.Col(ci)
		if !slices.Equal(cd.Codes, want.Codes) || !sameCells(cd.Dict, want.Dict) {
			t.Errorf("worker %d: column %s is %v %v, a serial build %v %v",
				w, j.Schema()[ci].Name, cd.Codes, cd.Dict, want.Codes, want.Dict)
		}
	}
}
