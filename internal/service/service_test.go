package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/relation"
)

func employeeDB() (*db.Database, *relation.Relation) {
	d := db.New()
	r := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString,
		"gender", relation.KindString, "dept", relation.KindString,
		"salary", relation.KindInt))
	r.Append(
		relation.NewTuple(1, "Alice", "F", "Sales", 3700),
		relation.NewTuple(2, "Bob", "M", "IT", 4200),
		relation.NewTuple(3, "Celina", "F", "Service", 3000),
		relation.NewTuple(4, "Darren", "M", "IT", 5000),
	)
	d.MustAddTable(r)
	d.AddPrimaryKey("Employee", "Eid")
	res := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	return d, res
}

func paperCandidates() []*algebra.Query {
	mk := func(name string, term algebra.Term) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred:       algebra.Predicate{algebra.Conjunct{term}}}
	}
	return []*algebra.Query{
		mk("Q1", algebra.NewTerm("Employee.gender", algebra.OpEQ, relation.Str("M"))),
		mk("Q2", algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))),
		mk("Q3", algebra.NewTerm("Employee.dept", algebra.OpEQ, relation.Str("IT"))),
	}
}

func testOptions() Options {
	cfg := core.DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
	return Options{Config: cfg}
}

// Create registers and starts a session under a fresh id: CreateWithID
// with the id the HTTP create handler would generate.
func (m *Manager) Create(d *db.Database, r *relation.Relation, qc []*algebra.Query) (Status, error) {
	return m.CreateWithID(context.Background(), newID(), d, r, qc)
}

// checkpointed writes m's state with Checkpoint to a file in a fresh
// temporary directory and returns the session count and the file's bytes,
// which Load reads back.
func checkpointed(t *testing.T, m *Manager) (int, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.json")
	n, err := m.Checkpoint(path)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return n, data
}

// driveToOutcome answers every round with the given oracle until done.
func driveToOutcome(t *testing.T, m *Manager, id string, oracle feedback.Oracle) *core.Outcome {
	t.Helper()
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		choice, ok, err := oracle.Choose(st.Round.View)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			choice = core.NoneOfThese
		}
		st, err = m.FeedbackAt(context.Background(), id, st.Round.Seq, choice)
		if err != nil {
			t.Fatal(err)
		}
	}
	return st.Outcome
}

func TestCreateFeedbackLifecycle(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	qc := paperCandidates()
	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Done() || st.Round == nil {
		t.Fatalf("unexpected initial status: %+v", st)
	}
	out := driveToOutcome(t, m, st.ID, feedback.Target{Query: qc[1]})
	if !out.Found || out.Query == nil || out.Query.Name != "Q2" {
		t.Fatalf("wrong outcome: %+v", out)
	}
	// Finished session stays fetchable.
	again, err := m.Get(st.ID)
	if err != nil || !again.Done() {
		t.Fatalf("finished session not fetchable: %v %+v", err, again)
	}
	stats := m.Stats()
	if stats.SessionsStarted != 1 || stats.SessionsFinished != 1 || stats.RoundsServed == 0 {
		t.Errorf("stats wrong: %+v", stats)
	}
	if stats.Live != 0 || stats.Resident != 1 {
		t.Errorf("resident/live wrong: %+v", stats)
	}
}

func TestFeedbackValidation(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	st, err := m.Create(d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.FeedbackAt(ctx, st.ID, st.Round.Seq, 99); err == nil {
		t.Fatal("out-of-range choice should error")
	}
	// Session still usable after the bad choice.
	if _, err := m.FeedbackAt(ctx, st.ID, st.Round.Seq, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FeedbackAt(ctx, "nope", 1, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

// TestFeedbackRequiresSeq: feedback without the seq of the round it
// answers is a validation error that leaves the round pending. An
// unconditional apply would turn a retried answer into an answer to the
// next round.
func TestFeedbackRequiresSeq(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	st, err := m.Create(d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{0, -1} {
		if _, err := m.FeedbackAt(context.Background(), st.ID, seq, 0); err == nil {
			t.Errorf("seq %d: feedback applied, want a validation error", seq)
		}
		got, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round == nil || got.Round.Seq != 1 {
			t.Fatalf("seq %d: round 1 no longer pending: %+v", seq, got.Round)
		}
	}
	if s := m.Stats(); s.RoundsServed != 1 {
		t.Errorf("rounds served = %d, want 1", s.RoundsServed)
	}
}

// TestFeedbackAfterFinishErrs: a finished session answers a retry of its
// last round with its outcome, and a later seq with ErrSeqAhead.
func TestFeedbackAfterFinishErrs(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	qc := paperCandidates()
	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	out := driveToOutcome(t, m, st.ID, feedback.WorstCase{})
	last := len(out.Iterations)
	again, err := m.FeedbackAt(context.Background(), st.ID, last, 0)
	if err != nil || again.Outcome != out {
		t.Errorf("retry of the last round: outcome %p, err %v; want outcome %p", again.Outcome, err, out)
	}
	if _, err := m.FeedbackAt(context.Background(), st.ID, last+1, 0); !errors.Is(err, ErrSeqAhead) {
		t.Errorf("seq past the last round: want ErrSeqAhead, got %v", err)
	}
}

func TestAbandon(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	st, err := m.Create(d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abandon(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("abandoned session still resident: %v", err)
	}
	if err := m.Abandon(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double abandon: %v", err)
	}
	if s := m.Stats(); s.SessionsAbandoned != 1 {
		t.Errorf("abandoned counter = %d", s.SessionsAbandoned)
	}
}

func TestCapacityBackpressure(t *testing.T) {
	d, r := employeeDB()
	opts := testOptions()
	opts.MaxSessions = 2
	m := New(opts)
	qc := paperCandidates()
	a, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(d, r, qc); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(d, r, qc); !errors.Is(err, ErrCapacity) {
		t.Fatalf("third session should hit the cap, got %v", err)
	}
	// Finishing one frees a slot: finished sessions do not count as live.
	driveToOutcome(t, m, a.ID, feedback.WorstCase{})
	if _, err := m.Create(d, r, qc); err != nil {
		t.Fatalf("cap should release after completion: %v", err)
	}
}

func TestTTLEviction(t *testing.T) {
	d, r := employeeDB()
	now := time.Unix(1000, 0)
	opts := testOptions()
	opts.TTL = time.Minute
	opts.Clock = func() time.Time { return now }
	m := New(opts)
	st, err := m.Create(d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Second)
	if _, err := m.Get(st.ID); err != nil {
		t.Fatalf("session evicted before TTL: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("session should be evicted, got %v", err)
	}
	if s := m.Stats(); s.SessionsEvicted != 1 {
		t.Errorf("evicted counter = %d", s.SessionsEvicted)
	}
	if n := m.EvictExpired(); n != 0 {
		t.Errorf("resident after eviction = %d", n)
	}
}

// TestSaveLoadResumesMidRound snapshots a manager with a session suspended
// mid-round, restores into a fresh manager ("process restart") and finishes
// there; the outcome must match an uninterrupted run.
func TestSaveLoadResumesMidRound(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	oracle := feedback.Target{Query: qc[2]}

	// Reference: uninterrupted.
	ref := New(testOptions())
	rst, err := ref.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	want := driveToOutcome(t, ref, rst.ID, oracle)

	m1 := New(testOptions())
	st, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	n, state := checkpointed(t, m1)
	if n != 1 {
		t.Fatalf("checkpoint: n=%d, want 1", n)
	}

	m2 := New(testOptions())
	loaded, errs := m2.Load(bytes.NewReader(state))
	if len(errs) > 0 || loaded != 1 {
		t.Fatalf("load: n=%d errs=%v", loaded, errs)
	}
	st2, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done() || st2.Round == nil {
		t.Fatalf("restored session lost its round: %+v", st2)
	}
	got := driveToOutcome(t, m2, st.ID, oracle)
	if !got.Found || got.Query == nil || want.Query == nil ||
		got.Query.Key() != want.Query.Key() {
		t.Fatalf("restored outcome differs: %+v vs %+v", got.Query, want.Query)
	}
	if got.TotalModCost != want.TotalModCost || len(got.Iterations) != len(want.Iterations) {
		t.Errorf("restored trajectory differs: cost %d vs %d, rounds %d vs %d",
			got.TotalModCost, want.TotalModCost, len(got.Iterations), len(want.Iterations))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := New(testOptions())
	if n, errs := m.Load(bytes.NewBufferString("{not json")); n != 0 || len(errs) == 0 {
		t.Errorf("garbage load: n=%d errs=%v", n, errs)
	}
	if n, errs := m.Load(bytes.NewBufferString(`{"version":9,"sessions":[]}`)); n != 0 || len(errs) == 0 {
		t.Errorf("bad version load: n=%d errs=%v", n, errs)
	}
}
