package core

import (
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
	"qfe/internal/relation"
)

// stepWithOracle drives a session through the public step API using an
// oracle for choices — the loop a service client would run, written out
// explicitly so the tests cover Start/Feedback directly rather than Run.
func stepWithOracle(t *testing.T, s *Session, oracle feedback.Oracle) *Outcome {
	t.Helper()
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	for round != nil {
		choice, ok, err := oracle.Choose(round.View)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			choice = NoneOfThese
		}
		var out *Outcome
		round, out, err = s.Feedback(choice)
		if err != nil {
			t.Fatal(err)
		}
		if round == nil {
			if out == nil {
				t.Fatal("session ended without outcome")
			}
			return out
		}
	}
	out, done := s.Outcome()
	if !done {
		t.Fatal("no outcome after Start returned nil round")
	}
	return out
}

// TestStepMatchesRun drives identical sessions once through Run (oracle
// loop) and once through explicit Start/Feedback stepping, for target and
// worst-case feedback, and requires identical outcomes.
func TestStepMatchesRun(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracles := []feedback.Oracle{
		feedback.WorstCase{},
		feedback.Target{Query: qc[0]},
		feedback.Target{Query: qc[len(qc)/2]},
	}
	for _, oracle := range oracles {
		sr, err := NewSession(d, r, qc, oracle, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		runOut, err := sr.Run()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewStepSession(d, r, qc, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		stepOut := stepWithOracle(t, ss, oracle)
		if !equalSignatures(outcomeSignature(t, runOut), outcomeSignature(t, stepOut)) {
			t.Errorf("oracle %T: step outcome differs from Run\nrun:  %v\nstep: %v",
				oracle, outcomeSignature(t, runOut), outcomeSignature(t, stepOut))
		}
	}
}

// TestStepRoundContents checks that each suspended round exposes the same
// view an oracle would have seen: consistent partition/results/queries and
// monotonically shrinking candidate sets on target feedback.
func TestStepRoundContents(t *testing.T) {
	d, r := employeeDB(t)
	qc := paperCandidates()
	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := feedback.Target{Query: qc[1]}
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	seq, prevQueries := 0, len(qc)+1
	for round != nil {
		seq++
		if round.Seq != seq {
			t.Errorf("round %d: Seq = %d", seq, round.Seq)
		}
		if len(round.View.Results) != len(round.View.Groups) {
			t.Fatalf("round %d: %d results for %d groups", seq,
				len(round.View.Results), len(round.View.Groups))
		}
		if len(round.View.Results) < 2 {
			t.Errorf("round %d: fewer than 2 distinct results", seq)
		}
		if len(round.View.Queries) >= prevQueries {
			t.Errorf("round %d: candidate count did not shrink: %d -> %d",
				seq, prevQueries, len(round.View.Queries))
		}
		prevQueries = len(round.View.Queries)
		if len(round.View.Edits) == 0 {
			t.Errorf("round %d: no database edits presented", seq)
		}
		if s.Pending() != round {
			t.Errorf("round %d: Pending() does not return the suspended round", seq)
		}
		choice, ok, err := oracle.Choose(round.View)
		if err != nil || !ok {
			t.Fatalf("target oracle failed: %v ok=%v", err, ok)
		}
		round, _, err = s.Feedback(choice)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, done := s.Outcome()
	if !done || !out.Found {
		t.Fatalf("session did not converge: %+v", out)
	}
	if out.Query == nil || out.Query.Name != "Q2" {
		t.Errorf("identified %v, want Q2", out.Query)
	}
	if s.state != stateDone || s.Pending() != nil {
		t.Error("terminal session should be Done with no pending round")
	}
}

// TestFeedbackInvalidChoiceKeepsSessionSuspended: an out-of-range choice is
// an error but must not corrupt the machine — the same round stays pending
// and a valid retry succeeds (the HTTP service depends on this).
func TestFeedbackInvalidChoiceKeepsSessionSuspended(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if round == nil {
		t.Fatal("expected a pending round")
	}
	if _, _, err := s.Feedback(len(round.View.Results) + 3); err == nil {
		t.Fatal("out-of-range choice should error")
	} else if !strings.Contains(err.Error(), "chose") {
		t.Errorf("unexpected error: %v", err)
	}
	if s.Pending() == nil {
		t.Fatal("invalid choice must leave the round pending")
	}
	if _, _, err := s.Feedback(-7); err == nil {
		t.Fatal("negative non-sentinel choice should error")
	}
	// Valid retry proceeds.
	if _, _, err := s.Feedback(0); err != nil {
		t.Fatal(err)
	}
}

// TestStepLifecycleErrors: Feedback before Start, double Start, Feedback
// after completion.
func TestStepLifecycleErrors(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Feedback(0); err == nil {
		t.Error("Feedback before Start should error")
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err == nil {
		t.Error("second Start should error")
	}
	oracle := feedback.WorstCase{}
	for s.Pending() != nil {
		choice, _, _ := oracle.Choose(s.Pending().View)
		if _, _, err := s.Feedback(choice); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Feedback(0); err == nil {
		t.Error("Feedback after completion should error")
	}
}

// TestStepNoneOfTheseCrossesGroups reuses the §6.2 two-group scenario: the
// target lives in the second join-schema group, so the step caller answers
// NoneOfThese for the first group's rounds and the machine must move on.
func TestStepNoneOfTheseCrossesGroups(t *testing.T) {
	d, r, qc, target := twoGroupScenario(t)
	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := feedback.Target{Query: target}
	sawSecondGroup := false
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	for round != nil {
		if round.Group > 0 {
			sawSecondGroup = true
		}
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
	if !done || !out.Found {
		t.Fatalf("target not found across groups: %+v", out)
	}
	found := false
	for _, q := range out.Remaining {
		if q.Name == target.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("%s should survive, got %v", target.Name, out.Remaining)
	}
	_ = sawSecondGroup // the target's group position depends on sort order; found is the invariant
}

// twoGroupScenario builds the §6.2 setup of TestJoinSchemaGroups: two
// single-table candidates and two join candidates, target in the join group.
func twoGroupScenario(t *testing.T) (*db.Database, *relation.Relation, []*algebra.Query, *algebra.Query) {
	t.Helper()
	d := db.New()
	dept := relation.New("Dept", relation.NewSchema(
		"did", relation.KindInt, "dname", relation.KindString, "floor", relation.KindInt))
	dept.Append(relation.NewTuple(1, "IT", 3), relation.NewTuple(2, "Sales", 1))
	emp := relation.New("Emp", relation.NewSchema(
		"eid", relation.KindInt, "ename", relation.KindString, "did", relation.KindInt,
		"age", relation.KindInt))
	emp.Append(
		relation.NewTuple(1, "Bob", 1, 30),
		relation.NewTuple(2, "Alice", 2, 40),
		relation.NewTuple(3, "Darren", 1, 35),
	)
	d.MustAddTable(dept)
	d.MustAddTable(emp)
	d.AddPrimaryKey("Dept", "did")
	d.AddPrimaryKey("Emp", "eid")
	d.AddForeignKey("Emp", []string{"did"}, "Dept", []string{"did"})
	r := relation.New("R", relation.NewSchema("ename", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))

	singleA := &algebra.Query{Name: "S1", Tables: []string{"Emp"}, Projection: []string{"Emp.ename"},
		Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("Emp.did", algebra.OpEQ, relation.Int(1))}}}
	singleB := &algebra.Query{Name: "S2", Tables: []string{"Emp"}, Projection: []string{"Emp.ename"},
		Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("Emp.age", algebra.OpLE, relation.Int(35))}}}
	joinA := &algebra.Query{Name: "J1", Tables: []string{"Emp", "Dept"}, Projection: []string{"Emp.ename"},
		Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("Dept.dname", algebra.OpEQ, relation.Str("IT"))}}}
	joinB := &algebra.Query{Name: "J2", Tables: []string{"Emp", "Dept"}, Projection: []string{"Emp.ename"},
		Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("Dept.floor", algebra.OpGE, relation.Int(2))}}}
	return d, r, []*algebra.Query{singleA, singleB, joinA, joinB}, joinA
}

// TestStepSingleCandidate: Start must complete immediately with no rounds.
func TestStepSingleCandidate(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates()[:1], testConfig())
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if round != nil {
		t.Fatal("single candidate should not produce a round")
	}
	out, done := s.Outcome()
	if !done || !out.Found || out.Query == nil || len(out.Iterations) != 0 {
		t.Errorf("unexpected outcome: %+v", out)
	}
}

// TestFatalAdvanceErrorTerminatesSession: when the engine fails after a
// choice is consumed (here: MaxIterations exhausted), the session must end
// in a terminal failed state — retrying Feedback errors cleanly instead of
// panicking, and no outcome is reported.
func TestFatalAdvanceErrorTerminatesSession(t *testing.T) {
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxIterations = 1 // force the second round over the limit
	s, err := NewStepSession(d, r, qc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.Start()
	if err != nil || round == nil {
		t.Fatalf("expected a first round: %v", err)
	}
	// Choose the largest subset so >1 candidate survives into round 2.
	choice, _, _ := feedback.WorstCase{}.Choose(round.View)
	if _, _, err := s.Feedback(choice); err == nil {
		t.Fatal("exceeding MaxIterations should error")
	}
	if s.state != stateDone || s.Err() == nil {
		t.Fatalf("session should be terminally failed: done=%v err=%v", s.state == stateDone, s.Err())
	}
	if _, ok := s.Outcome(); ok {
		t.Error("failed session must not report an outcome")
	}
	// Retry must error, not panic.
	if _, _, err := s.Feedback(0); err == nil {
		t.Error("Feedback on a failed session should error")
	}
}

// TestRunWithoutOracle: a step session has no oracle, so Run must refuse.
func TestRunWithoutOracle(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewStepSession(d, r, paperCandidates(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("Run without oracle should error")
	}
}
