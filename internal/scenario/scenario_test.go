package scenario

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/par"
)

// TestGenerateDeterminism: the same (seed, options) pair must produce
// byte-identical corpora — the property reproducible BENCH_sim runs and
// shipped fixtures rely on.
func TestGenerateDeterminism(t *testing.T) {
	opts := DefaultGenOptions()
	var bufs [2]bytes.Buffer
	for i := range bufs {
		corpus, err := GenerateCorpus(99, 20, opts)
		if err != nil {
			t.Fatalf("GenerateCorpus: %v", err)
		}
		if err := Write(&bufs[i], Header{Seed: 99, Gen: &opts}, corpus); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("same seed produced different corpora (%d vs %d bytes)",
			bufs[0].Len(), bufs[1].Len())
	}
}

// TestGeneratedScenarios checks the generator's guarantees on 200 scenarios
// built concurrently (exercising the shared kernel under -race): declared
// primary/foreign keys hold, the stored result matches the target's
// evaluation, and results are non-trivial — non-empty and different from
// the same projection without selection.
func TestGeneratedScenarios(t *testing.T) {
	const n = 200
	opts := DefaultGenOptions()
	scenarios := make([]*Scenario, n)
	errs := make([]error, n)
	par.Do(n, par.Workers(0), func(i int) {
		s, err := Generate(deriveSeed(4242, uint64(i)), opts)
		if err != nil {
			errs[i] = err
			return
		}
		scenarios[i] = s
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
	}
	for i, s := range scenarios {
		if err := s.DB.Validate(); err != nil {
			t.Errorf("scenario %d: integrity violation: %v", i, err)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("scenario %d: %v", i, err)
		}
		if s.R.Len() == 0 {
			t.Errorf("scenario %d: empty result", i)
		}
		trivial := &algebra.Query{
			Tables:     s.Target.Tables,
			Projection: s.Target.Projection,
			Distinct:   s.Target.Distinct,
		}
		full, err := trivial.Evaluate(s.DB)
		if err != nil {
			t.Errorf("scenario %d: trivial query: %v", i, err)
			continue
		}
		if s.R.BagEqual(full) {
			t.Errorf("scenario %d: result is total (equals the unselected projection)", i)
		}
	}
}

// TestFreshDB: fresh databases share the schema and constraints, satisfy
// them, are deterministic in k, and the target stays evaluable.
func TestFreshDB(t *testing.T) {
	s, err := Generate(7, DefaultGenOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !s.CanFresh() {
		t.Fatal("generated scenario must support FreshDB")
	}
	d1, err := s.FreshDB(0)
	if err != nil {
		t.Fatalf("FreshDB: %v", err)
	}
	d1b, err := s.FreshDB(0)
	if err != nil {
		t.Fatalf("FreshDB: %v", err)
	}
	if err := d1.Validate(); err != nil {
		t.Fatalf("fresh db integrity: %v", err)
	}
	if len(d1.Tables()) != len(s.DB.Tables()) {
		t.Fatalf("fresh db has %d tables, want %d", len(d1.Tables()), len(s.DB.Tables()))
	}
	for _, tbl := range s.DB.Tables() {
		ft := d1.Table(tbl.Name)
		if ft == nil {
			t.Fatalf("fresh db missing table %s", tbl.Name)
		}
		if !slices.Equal(ft.Schema, tbl.Schema) {
			t.Fatalf("fresh db table %s schema differs", tbl.Name)
		}
	}
	r1, err := s.Target.Evaluate(d1)
	if err != nil {
		t.Fatalf("target on fresh db: %v", err)
	}
	r1b, err := s.Target.Evaluate(d1b)
	if err != nil {
		t.Fatalf("target on fresh db: %v", err)
	}
	if !r1.BagEqual(r1b) {
		t.Fatal("FreshDB(0) is not deterministic")
	}
	// Curated scenarios have no generation spec to regenerate from.
	cur := &Scenario{Name: "x", Kind: KindCurated}
	if cur.CanFresh() {
		t.Fatal("curated scenario must not claim fresh databases")
	}
	if _, err := cur.FreshDB(0); err == nil {
		t.Fatal("FreshDB on curated scenario should error")
	}
}

// TestCurated registers the three datasets' study queries as verifiable
// corpus entries.
func TestCurated(t *testing.T) {
	cs, err := Curated()
	if err != nil {
		t.Fatalf("Curated: %v", err)
	}
	if len(cs) != 9 { // Q1-Q2, Q3-Q6, U1-U3
		t.Fatalf("got %d curated scenarios, want 9", len(cs))
	}
	names := map[string]bool{}
	for _, s := range cs {
		names[s.Name] = true
		if s.Kind != KindCurated {
			t.Errorf("%s: kind %q", s.Name, s.Kind)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("%v", err)
		}
		if s.R.Len() == 0 {
			t.Errorf("%s: empty result", s.Name)
		}
	}
	for _, want := range []string{"scientific/Q1", "baseball/Q4", "adult/U1"} {
		if !names[want] {
			t.Errorf("missing curated scenario %s", want)
		}
	}
}

// TestGenerateConcurrentSameSeed: concurrent generation from one seed is
// race-free and agrees with itself.
func TestGenerateConcurrentSameSeed(t *testing.T) {
	const workers = 8
	out := make([]*Scenario, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := Generate(11, DefaultGenOptions())
			if err != nil {
				t.Errorf("Generate: %v", err)
				return
			}
			out[i] = s
		}(i)
	}
	wg.Wait()
	want, err := json.Marshal(EncodeEntry(out[0]))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for i := 1; i < workers; i++ {
		got, err := json.Marshal(EncodeEntry(out[i]))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("concurrent generation diverged at %d", i)
		}
	}
}
