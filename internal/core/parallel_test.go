package core

import (
	"runtime"
	"testing"

	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
)

// outcomeSignature projects an Outcome onto its deterministic content: the
// identified query, the surviving candidate set and the per-round |QC| / k /
// chosen-subset trajectory (the Table 1 quantities, minus wall-clock times).
func outcomeSignature(t *testing.T, out *Outcome) []any {
	t.Helper()
	sig := []any{out.Found, out.Ambiguous, out.TotalModCost}
	if out.Query != nil {
		sig = append(sig, out.Query.Key())
	}
	for _, q := range out.Remaining {
		sig = append(sig, q.Key())
	}
	for _, it := range out.Iterations {
		sig = append(sig, it.NumQueries, it.NumSubsets, it.SkylinePairs,
			it.Enumerated, it.DBCost, it.ResultCost, it.ChosenSubset, it.ChosenSize)
	}
	return sig
}

func equalSignatures(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionParallelMatchesSerial runs complete winnowing sessions — QBO
// candidates, worst-case and target feedback — at Parallelism 1 and at every
// worker count in {2, 4, 8, GOMAXPROCS} and asserts identical outcomes: same
// chosen query, same per-round |QC| trajectory, same costs. Worker counts
// above the CPU count are deliberate: oversubscription shuffles execution
// interleavings without being allowed to change results. Under -race this
// doubles as the concurrency-safety test for the whole engine.
func TestSessionParallelMatchesSerial(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qc) < 3 {
		t.Fatalf("too few candidates: %d", len(qc))
	}

	run := func(parallelism int, oracle feedback.Oracle) []any {
		cfg := testConfig()
		cfg.Parallelism = parallelism
		cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
		s, err := NewSession(d, r, qc, oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeSignature(t, out)
	}

	ncpu := runtime.GOMAXPROCS(0)
	for _, oracle := range []feedback.Oracle{
		feedback.WorstCase{},
		feedback.Target{Query: qc[len(qc)/2]},
	} {
		serial := run(1, oracle)
		for _, p := range []int{2, 4, 8, ncpu} {
			parallel := run(p, oracle)
			if !equalSignatures(serial, parallel) {
				t.Errorf("oracle %T parallelism %d: outcome differs\nserial:   %v\nparallel: %v",
					oracle, p, serial, parallel)
			}
		}
	}
}
