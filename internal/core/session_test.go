package core

import (
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
	"qfe/internal/relation"
)

func employeeDB(t testing.TB) (*db.Database, *relation.Relation) {
	t.Helper()
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

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
	return cfg
}

// TestPaperExample11 replays the paper's worked example: each of the three
// candidates, when chosen as the target, must be identified within two
// feedback rounds using single-attribute database changes.
func TestPaperExample11(t *testing.T) {
	d, r := employeeDB(t)
	for _, target := range paperCandidates() {
		qc := paperCandidates()
		s, err := NewSession(d, r, qc, feedback.Target{Query: target}, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatalf("target %s: %v", target.Name, err)
		}
		if !out.Found || out.Query == nil {
			t.Fatalf("target %s not identified: %+v", target.Name, out)
		}
		if out.Query.Name != target.Name {
			t.Errorf("identified %s, want %s", out.Query.Name, target.Name)
		}
		if n := len(out.Iterations); n > 2 {
			t.Errorf("target %s took %d rounds, paper does it in ≤2", target.Name, n)
		}
		for _, it := range out.Iterations {
			if it.DBCost < 1 {
				t.Errorf("iteration %d has no database modification", it.Iteration)
			}
		}
	}
}

func TestWorstCaseTerminates(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewSession(d, r, paperCandidates(), feedback.WorstCase{}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Remaining) != 1 {
		t.Fatalf("worst-case feedback should converge to one query: %+v", out)
	}
	if out.TotalModCost <= 0 {
		t.Error("TotalModCost not accumulated")
	}
	if len(out.Iterations) == 0 || out.Iterations[0].NumQueries != 3 {
		t.Errorf("iteration stats wrong: %+v", out.Iterations)
	}
}

func TestEndToEndWithQBOCandidates(t *testing.T) {
	// Full pipeline: QBO generates QC from (D, R); QFE winnows it toward a
	// chosen target with automated target feedback.
	d, r := employeeDB(t)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qc) < 3 {
		t.Fatalf("too few candidates: %d", len(qc))
	}
	// Pick the salary-threshold candidate as target if present, else first.
	target := qc[0]
	for _, q := range qc {
		for _, c := range q.Pred {
			for _, term := range c {
				if term.Attr == "Employee.salary" && term.Op == algebra.OpGT {
					target = q
				}
			}
		}
	}
	s, err := NewSession(d, r, qc, feedback.Target{Query: target}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("target not found")
	}
	// The remaining candidates must all behave like the target on every
	// tested database; at minimum they agree on D.
	for _, q := range out.Remaining {
		res, err := q.Evaluate(d)
		if err != nil || !res.BagEqual(r) {
			t.Errorf("survivor %s does not produce R", q.Name)
		}
	}
	// Winnowing must shrink per round.
	prev := 1 << 30
	for _, it := range out.Iterations {
		if it.NumQueries >= prev {
			t.Errorf("candidate count did not shrink: %+v", out.Iterations)
		}
		prev = it.NumQueries
	}
}

func TestEquivalentCandidatesMergedUpfront(t *testing.T) {
	d, r := employeeDB(t)
	mk := func(name string, op algebra.Op, c int64) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred: algebra.Predicate{algebra.Conjunct{
				algebra.NewTerm("Employee.salary", op, relation.Int(c))}}}
	}
	// A ≡ B over the integer domain; C differs.
	qc := []*algebra.Query{
		mk("A", algebra.OpGT, 4000),
		mk("B", algebra.OpGE, 4001),
		paperCandidates()[0], // gender = 'M'
	}
	s, err := NewSession(d, r, qc, feedback.Target{Query: qc[0]}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("not found")
	}
	// The winner is the {A, B} equivalence class: ambiguous with exactly
	// those two members.
	if !out.Ambiguous || len(out.Remaining) != 2 {
		t.Fatalf("want ambiguous {A,B}, got %+v", out.Remaining)
	}
	names := map[string]bool{}
	for _, q := range out.Remaining {
		names[q.Name] = true
	}
	if !names["A"] || !names["B"] {
		t.Errorf("remaining = %v", names)
	}
}

func TestSingleCandidateShortCircuits(t *testing.T) {
	d, r := employeeDB(t)
	qc := paperCandidates()[:1]
	s, err := NewSession(d, r, qc, feedback.WorstCase{}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Query == nil || len(out.Iterations) != 0 {
		t.Errorf("single candidate should need zero rounds: %+v", out)
	}
}

func TestJoinSchemaGroups(t *testing.T) {
	// Candidates over different join schemas: a single-table query group
	// and a two-table one; §6.2 processes the larger group first and moves
	// on when the oracle rejects every result.
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

	qc := []*algebra.Query{singleA, singleB, joinA, joinB}
	// Target is in the join group; the single-table group is the same size,
	// so order is deterministic by key — either way the session must find
	// the target across groups.
	s, err := NewSession(d, r, qc, feedback.Target{Query: joinA}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatalf("target in second group not found: %+v", out)
	}
	ok := false
	for _, q := range out.Remaining {
		if q.Name == "J1" {
			ok = true
		}
	}
	if !ok {
		t.Errorf("J1 should survive, got %v", out.Remaining)
	}
}

func TestSessionValidation(t *testing.T) {
	d, r := employeeDB(t)
	if _, err := NewSession(d, r, nil, feedback.WorstCase{}, testConfig()); err == nil {
		t.Error("empty QC should fail")
	}
	if _, err := NewSession(d, r, paperCandidates(), nil, testConfig()); err == nil {
		t.Error("nil oracle should fail")
	}
}

func TestIterationStatsPopulated(t *testing.T) {
	d, r := employeeDB(t)
	s, err := NewSession(d, r, paperCandidates(), feedback.WorstCase{}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range out.Iterations {
		if it.NumSubsets < 2 {
			t.Errorf("iteration %d: subsets = %d", it.Iteration, it.NumSubsets)
		}
		if it.SkylinePairs <= 0 {
			t.Errorf("iteration %d: no skyline pairs recorded", it.Iteration)
		}
		if it.AvgResultCost <= 0 {
			t.Errorf("iteration %d: avg result cost = %v", it.Iteration, it.AvgResultCost)
		}
		if it.ChosenSize <= 0 {
			t.Errorf("iteration %d: chosen size missing", it.Iteration)
		}
	}
}
