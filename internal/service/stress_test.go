package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
)

// TestConcurrentSessionsMatchSerialRuns is the service-layer stress test:
// many goroutines drive independent sessions through one Manager, and
// every concurrent outcome must equal the outcome of the same (D, R, QC,
// oracle) instance run serially through core.Session.Run. Run with -race
// this doubles as the data-race check for the whole manager/step stack.
func TestConcurrentSessionsMatchSerialRuns(t *testing.T) {
	d, r := employeeDB()
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = 12
	qc, err := qbo.Generate(d, r, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qc) < 4 {
		t.Fatalf("too few candidates: %d", len(qc))
	}

	// Keep the budget deterministic so serial and service runs enumerate
	// identically.
	cfg := core.DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}

	workers, sessionsPerWorker := 16, 3
	if testing.Short() {
		workers, sessionsPerWorker = 4, 1
	}

	// Serial references, one per distinct oracle; workers share them.
	type ref struct {
		oracle feedback.Oracle
		sig    string
	}
	distinct := 5 // target oracles for qc[0..distinct-1], plus worst-case
	if distinct > len(qc) {
		distinct = len(qc)
	}
	serial := func(oracle feedback.Oracle) string {
		s, err := core.NewSession(d, r, qc, oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeKey(out)
	}
	pool := make([]ref, 0, distinct+1)
	for i := 0; i < distinct; i++ {
		oracle := feedback.Target{Query: qc[i]}
		pool = append(pool, ref{oracle: oracle, sig: serial(oracle)})
	}
	pool = append(pool, ref{oracle: feedback.WorstCase{}, sig: serial(feedback.WorstCase{})})
	refs := make([]ref, workers)
	for i := range refs {
		refs[i] = pool[i%len(pool)]
	}

	m := New(Options{Config: cfg, MaxSessions: workers*sessionsPerWorker + 1})
	var wg sync.WaitGroup
	errCh := make(chan error, workers*sessionsPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < sessionsPerWorker; k++ {
				st, err := m.Create(d, r, qc)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: create: %w", w, err)
					return
				}
				for !st.Done() {
					choice, ok, err := refs[w].oracle.Choose(st.Round.View)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: choose: %w", w, err)
						return
					}
					if !ok {
						choice = core.NoneOfThese
					}
					st, err = m.FeedbackAt(context.Background(), st.ID, st.Round.Seq, choice)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: feedback: %w", w, err)
						return
					}
				}
				if got := outcomeKey(st.Outcome); got != refs[w].sig {
					errCh <- fmt.Errorf("worker %d session %d: outcome differs from serial run\nserial:  %s\nservice: %s",
						w, k, refs[w].sig, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	stats := m.Stats()
	if want := uint64(workers * sessionsPerWorker); stats.SessionsStarted != want && !t.Failed() {
		t.Errorf("sessions started = %d, want %d", stats.SessionsStarted, want)
	}
}

// outcomeKey canonically encodes the deterministic content of an outcome:
// identification result, surviving candidate keys, and the per-round
// trajectory (sizes, costs, choices).
func outcomeKey(out *core.Outcome) string {
	s := fmt.Sprintf("found=%v ambiguous=%v cost=%d", out.Found, out.Ambiguous, out.TotalModCost)
	if out.Query != nil {
		s += " query=" + out.Query.Key()
	}
	for _, q := range out.Remaining {
		s += " rem=" + q.Key()
	}
	for _, it := range out.Iterations {
		s += fmt.Sprintf(" [%d:%d/%d sp=%d db=%d rc=%d ch=%d/%d]",
			it.Iteration, it.NumQueries, it.NumSubsets, it.SkylinePairs,
			it.DBCost, it.ResultCost, it.ChosenSubset, it.ChosenSize)
	}
	return s
}
