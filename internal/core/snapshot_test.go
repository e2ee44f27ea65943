package core

import (
	"encoding/json"
	"testing"

	"qfe/internal/feedback"
	"qfe/internal/qbo"
)

// finishWithOracle steps a (possibly restored) session to completion.
func finishWithOracle(t *testing.T, s *Session, oracle feedback.Oracle) *Outcome {
	t.Helper()
	round := s.Pending()
	if round == nil {
		if out, done := s.Outcome(); done {
			return out
		}
		var err error
		round, err = s.Start()
		if err != nil {
			t.Fatal(err)
		}
	}
	for round != nil {
		choice, ok, err := oracle.Choose(round.View)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			choice = NoneOfThese
		}
		round, _, err = s.Feedback(choice)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, done := s.Outcome()
	if !done {
		t.Fatal("session did not finish")
	}
	return out
}

// TestSnapshotRestoreMidSession is the acceptance check: suspend a session
// on its first round, serialize it to JSON, restore in a "new process"
// (fresh objects), and finish both; the restored session must reach the same
// final Outcome.
func TestSnapshotRestoreMidSession(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []feedback.Oracle{
		feedback.WorstCase{},
		feedback.Target{Query: qc[len(qc)/2]},
	} {
		orig, err := NewStepSession(d, r, qc, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if round, err := orig.Start(); err != nil || round == nil {
			t.Fatalf("expected a first round: %v", err)
		}

		snap, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := UnmarshalSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(decoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Pending() == nil {
			t.Fatal("restored session lost its pending round")
		}
		// The restored round must present the same view content.
		a, b := orig.Pending(), restored.Pending()
		if a.Seq != b.Seq || a.Iteration != b.Iteration || a.Group != b.Group {
			t.Errorf("oracle %T: round position differs: %+v vs %+v", oracle, a, b)
		}
		if len(a.View.Results) != len(b.View.Results) {
			t.Fatalf("oracle %T: result count differs", oracle)
		}
		for i := range a.View.Results {
			if !a.View.Results[i].BagEqual(b.View.Results[i]) {
				t.Errorf("oracle %T: result %d differs after restore", oracle, i)
			}
		}
		if len(a.View.Edits) != len(b.View.Edits) {
			t.Errorf("oracle %T: edit count differs", oracle)
		}

		outA := finishWithOracle(t, orig, oracle)
		outB := finishWithOracle(t, restored, oracle)
		sigA, sigB := outcomeSignature(t, outA), outcomeSignature(t, outB)
		if !equalSignatures(sigA, sigB) {
			t.Errorf("oracle %T: outcome differs after snapshot/restore\norig:     %v\nrestored: %v",
				oracle, sigA, sigB)
		}
	}
}

// TestSnapshotEveryRound snapshots and restores at every suspension point of
// a multi-round session, finishing each fork and requiring the same outcome.
func TestSnapshotEveryRound(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := feedback.WorstCase{}

	ref, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeSignature(t, stepWithOracle(t, ref, oracle))

	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	for round != nil {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := UnmarshalSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := Restore(decoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := outcomeSignature(t, finishWithOracle(t, fork, oracle))
		if !equalSignatures(want, got) {
			t.Fatalf("fork at round %d diverged\nwant: %v\ngot:  %v", round.Seq, want, got)
		}
		choice, ok, err := oracle.Choose(round.View)
		if err != nil || !ok {
			t.Fatal(err)
		}
		round, _, err = s.Feedback(choice)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := outcomeSignature(t, finishWithOracle(t, s, oracle)); !equalSignatures(want, got) {
		t.Fatalf("stepped-through session diverged: %v vs %v", want, got)
	}
}

// TestSnapshotNewAndDoneStates round-trips the terminal and initial states.
func TestSnapshotNewAndDoneStates(t *testing.T) {
	d, r := employeeDB(t)
	qc := paperCandidates()

	// New: restore then run normally.
	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "new" {
		t.Fatalf("state = %q, want new", snap.State)
	}
	restored, err := Restore(snap, feedback.WorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatalf("restored-new session failed: %+v", out)
	}

	// Done: outcome must survive the round-trip.
	snap2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.State != "done" {
		t.Fatalf("state = %q, want done", snap2.State)
	}
	data, err := json.Marshal(snap2)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Restore(decoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, done := again.Outcome()
	if !done {
		t.Fatal("restored-done session lost its outcome")
	}
	if !equalSignatures(outcomeSignature(t, out), outcomeSignature(t, out2)) {
		t.Errorf("outcome changed across restore:\n%v\n%v",
			outcomeSignature(t, out), outcomeSignature(t, out2))
	}
}

// TestRunResumesRestoredSession: Run on a session restored mid-round must
// continue from the pending round under its oracle, not fail on Start.
func TestRunResumesRestoredSession(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := feedback.Target{Query: qc[1]}

	ref, err := NewSession(d, r, qc, oracle, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if round, err := s.Start(); err != nil || round == nil {
		t.Fatalf("expected a first round: %v", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, oracle)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatalf("Run on restored session: %v", err)
	}
	if !equalSignatures(outcomeSignature(t, want), outcomeSignature(t, got)) {
		t.Errorf("restored Run outcome differs:\n%v\n%v",
			outcomeSignature(t, want), outcomeSignature(t, got))
	}
	// Run on an already-finished session just reports the outcome.
	again, err := restored.Run()
	if err != nil || again != got {
		t.Errorf("Run on finished session: %v %p %p", err, again, got)
	}
}

// TestSnapshotPreservesFailure: a fatally-failed session must restore as
// failed — engine failures must not masquerade as not-found outcomes.
func TestSnapshotPreservesFailure(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxIterations = 1
	s, err := NewStepSession(d, r, qc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.Start()
	if err != nil || round == nil {
		t.Fatal(err)
	}
	choice, _, _ := feedback.WorstCase{}.Choose(round.View)
	if _, _, err := s.Feedback(choice); err == nil {
		t.Fatal("expected MaxIterations failure")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "failed" || snap.Fatal == "" {
		t.Fatalf("snapshot state %q fatal %q, want failed", snap.State, snap.Fatal)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(decoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.state != stateDone || restored.Err() == nil {
		t.Errorf("restored session should be failed: done=%v err=%v",
			restored.state == stateDone, restored.Err())
	}
	if _, ok := restored.Outcome(); ok {
		t.Error("restored failed session must not report an outcome")
	}
}

// TestSnapshotVersionGuard rejects snapshots from a different format
// version.
func TestSnapshotVersionGuard(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = SnapshotVersion + 1
	if _, err := Restore(snap, nil); err == nil {
		t.Error("version mismatch should be rejected")
	}
}

// TestRestoreRejectsPendingRoundOutsideGroups: a pending round names the
// join-schema group it winnows, and the next Feedback indexes the group
// list with it, so a corrupt index must fail Restore rather than panic
// there.
func TestRestoreRejectsPendingRoundOutsideGroups(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range []int{-5, 1} { // the candidates form one group
		snap.GroupIndex = gi
		if _, err := Restore(snap, nil); err == nil {
			t.Errorf("group index %d accepted", gi)
		}
	}
}

// TestRestoreRejectsParallelismOutOfRange pins the bound on the restored
// worker count: the engine sizes per-worker scratch by it, so a state file,
// WAL record or adopted estate with a huge count must be refused rather
// than stepped.
func TestRestoreRejectsParallelismOutOfRange(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{-1, MaxParallelism + 1, 1 << 30} {
		snap.Config.Parallelism = p
		if _, err := Restore(snap, nil); err == nil {
			t.Errorf("parallelism %d accepted", p)
		}
	}
	snap.Config.Parallelism = MaxParallelism
	if _, err := Restore(snap, nil); err != nil {
		t.Errorf("parallelism %d rejected: %v", MaxParallelism, err)
	}
}
