package qfe

import (
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API on the paper's worked
// example: parse the intended query from SQL, generate candidates from the
// example pair, winnow with a target oracle, and check the survivor behaves
// like the target.
func TestFacadeEndToEnd(t *testing.T) {
	d, r := example11DB()

	target, err := ParseSQL("SELECT Employee.name FROM Employee WHERE Employee.salary > 4000")
	if err != nil {
		t.Fatal(err)
	}
	got, err := target.Evaluate(d)
	if err != nil || !got.BagEqual(r) {
		t.Fatalf("target should produce R: %v %v", got, err)
	}

	qc, err := GenerateCandidates(d, r, DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qc) < 3 {
		t.Fatalf("only %d candidates", len(qc))
	}

	cfg := DefaultSessionConfig()
	cfg.Gen.Budget = Budget{MaxPairs: 100000}
	s, err := NewSession(d, r, qc, TargetOracle{Query: target}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Remaining) == 0 {
		t.Fatalf("no outcome: %+v", out)
	}
	// Survivors must agree with the target on the original database.
	for _, q := range out.Remaining {
		res, err := q.Evaluate(d)
		if err != nil || !res.BagEqual(r) {
			t.Errorf("survivor %s diverges on D", q.Name)
		}
	}
}

func TestFacadeSQLRoundTrip(t *testing.T) {
	q, err := ParseSQL("SELECT DISTINCT a.x FROM a WHERE a.x IN (1, 2) OR a.y <= 'm'")
	if err != nil {
		t.Fatal(err)
	}
	sql := q.SQL()
	if !strings.Contains(sql, "DISTINCT") || !strings.Contains(sql, "IN (1, 2)") {
		t.Errorf("SQL = %q", sql)
	}
	q2, err := ParseSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Key() != q2.Key() {
		t.Error("round trip changed the query")
	}
}

func TestFacadeEditDistance(t *testing.T) {
	a := NewRelation("a", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(2))
	b := NewRelation("b", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(3))
	if MinEdit(a, b) != 1 {
		t.Errorf("MinEdit = %d", MinEdit(a, b))
	}
	ops, cost := EditScript(a, b)
	if cost != 1 || len(ops) != 1 {
		t.Errorf("script = %v cost %d", ops, cost)
	}
	if FormatResultDelta(a, b) == "" {
		t.Error("delta rendering empty")
	}
}

func TestFacadeValuesAndRelations(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("numeric equality broken through facade")
	}
	rel := NewRelation("t", NewSchema("a", KindString))
	rel.Append(NewTuple("x"))
	var sb strings.Builder
	if err := WriteCSV(rel, &sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil || !back.BagEqual(rel) {
		t.Errorf("csv round trip: %v %v", back, err)
	}
}
