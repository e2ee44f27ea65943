package qbo

import (
	"math"
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// employeeDB is the paper's Example 1.1 database.
func employeeDB(t *testing.T) *db.Database {
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
	return d
}

func exampleResult() *relation.Relation {
	return relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
}

func TestGenerateExample11Candidates(t *testing.T) {
	d := employeeDB(t)
	r := exampleResult()
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no candidates generated")
	}
	// Every candidate must reproduce R exactly (the generator's contract).
	for _, q := range qs {
		res, err := q.Evaluate(d)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !res.BagEqual(r) {
			t.Errorf("candidate %s does not produce R: %v", q, res.Tuples)
		}
	}
	// The paper's three intents must all be found: gender='M',
	// salary>4000-style, dept='IT'.
	var hasGender, hasSalary, hasDept bool
	for _, q := range qs {
		for _, attr := range q.Pred.Attrs() {
			switch attr {
			case "Employee.gender":
				hasGender = true
			case "Employee.salary":
				hasSalary = true
			case "Employee.dept":
				hasDept = true
			}
		}
	}
	if !hasGender || !hasSalary || !hasDept {
		t.Errorf("missing expected candidate families: gender=%v salary=%v dept=%v (got %d candidates)",
			hasGender, hasSalary, hasDept, len(qs))
		for _, q := range qs {
			t.Logf("  %s", q)
		}
	}
}

func TestGenerateDeduplicatesAndNames(t *testing.T) {
	d := employeeDB(t)
	qs, err := Generate(d, exampleResult(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, q := range qs {
		fp := q.Key()
		if seen[fp] {
			t.Errorf("duplicate candidate %s", q)
		}
		seen[fp] = true
		if q.Name == "" {
			t.Errorf("candidate %d unnamed", i)
		}
	}
}

func TestGenerateRespectsMaxCandidates(t *testing.T) {
	d := employeeDB(t)
	cfg := DefaultConfig()
	cfg.MaxCandidates = 2
	qs, err := Generate(d, exampleResult(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) > 2 {
		t.Errorf("MaxCandidates=2 produced %d", len(qs))
	}
}

func TestGenerateTruePredicateWhenRIsWholeProjection(t *testing.T) {
	d := employeeDB(t)
	r := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Alice"), relation.NewTuple("Bob"),
			relation.NewTuple("Celina"), relation.NewTuple("Darren"))
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	foundTrue := false
	for _, q := range qs {
		if len(q.Pred) == 0 {
			foundTrue = true
		}
	}
	if !foundTrue {
		t.Error("whole-column result should admit the TRUE predicate")
	}
}

func TestGenerateInfeasibleResult(t *testing.T) {
	d := employeeDB(t)
	// A value that does not exist anywhere.
	r := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Zorro"))
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Errorf("impossible result should yield no candidates, got %d", len(qs))
	}
}

func TestGenerateBagSemanticsExactness(t *testing.T) {
	// R demands Bob twice but the data has him once: infeasible.
	d := employeeDB(t)
	r := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Bob"))
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Errorf("over-demanding multiplicity should be infeasible, got %d candidates", len(qs))
	}
}

func TestGenerateTwoTableJoin(t *testing.T) {
	d := db.New()
	dept := relation.New("Dept", relation.NewSchema(
		"did", relation.KindInt, "dname", relation.KindString, "floor", relation.KindInt))
	dept.Append(
		relation.NewTuple(1, "IT", 3),
		relation.NewTuple(2, "Sales", 1),
	)
	emp := relation.New("Emp", relation.NewSchema(
		"eid", relation.KindInt, "ename", relation.KindString, "did", relation.KindInt))
	emp.Append(
		relation.NewTuple(1, "Bob", 1),
		relation.NewTuple(2, "Alice", 2),
		relation.NewTuple(3, "Darren", 1),
	)
	d.MustAddTable(dept)
	d.MustAddTable(emp)
	d.AddPrimaryKey("Dept", "did")
	d.AddForeignKey("Emp", []string{"did"}, "Dept", []string{"did"})

	// R = names of employees on floor 3 = {Bob, Darren}.
	r := relation.New("R", relation.NewSchema("ename", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no candidates for join query")
	}
	twoTable := false
	for _, q := range qs {
		if len(q.Tables) == 2 {
			twoTable = true
		}
		res, err := q.Evaluate(d)
		if err != nil || !res.BagEqual(r) {
			t.Errorf("candidate %s invalid: %v %v", q, res, err)
		}
	}
	if !twoTable {
		t.Error("expected at least one two-table candidate")
	}
}

func TestGenerateDisjunctiveCandidates(t *testing.T) {
	// R = {Alice, Celina}: the clean separators are gender='F' and the
	// disjunction name IN / dept clusters.
	d := employeeDB(t)
	r := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Alice"), relation.NewTuple("Celina"))
	qs, err := Generate(d, r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	foundDisjunction := false
	for _, q := range qs {
		if len(q.Pred) >= 2 {
			foundDisjunction = true
		}
	}
	if len(qs) == 0 {
		t.Fatal("no candidates")
	}
	if !foundDisjunction {
		t.Log("no disjunctive candidate found (acceptable but unexpected); candidates:")
		for _, q := range qs {
			t.Logf("  %s", q)
		}
	}
}

func TestConnectedTableSubsets(t *testing.T) {
	d := db.New()
	for _, n := range []string{"A", "B", "C"} {
		d.MustAddTable(relation.New(n, relation.NewSchema("x", relation.KindInt)))
	}
	d.AddForeignKey("B", []string{"x"}, "A", []string{"x"})
	// C is an island: subsets = {A},{B},{C},{A,B} — not {A,C},{B,C},{A,B,C}.
	subsets := connectedTableSubsets(d)
	keys := map[string]bool{}
	for _, s := range subsets {
		k := ""
		for _, n := range s {
			k += n
		}
		keys[k] = true
	}
	for _, want := range []string{"A", "B", "C", "AB"} {
		if !keys[want] {
			t.Errorf("missing connected subset %s", want)
		}
	}
	for _, bad := range []string{"AC", "BC", "ABC"} {
		if keys[bad] {
			t.Errorf("disconnected subset %s should be absent", bad)
		}
	}
}

func TestPerturbConstants(t *testing.T) {
	d := employeeDB(t)
	r := exampleResult()
	base := []*algebra.Query{{
		Name:       "Q",
		Tables:     []string{"Employee"},
		Projection: []string{"Employee.name"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))}},
	}}
	extra, err := PerturbConstants(d, r, base, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(extra) == 0 {
		t.Fatal("expected perturbed variants (e.g. salary > 3700..4200 gap)")
	}
	// The adjacent data value below 4000 and the midpoints of the gaps on
	// either side of it, in that order.
	var got []string
	for _, q := range extra {
		got = append(got, q.Name+": "+q.Pred.String())
	}
	want := []string{"P1: Employee.salary > 3700", "P2: Employee.salary > 3850", "P3: Employee.salary > 4100"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("perturbed variants %q, want %q", got, want)
	}
	for _, q := range extra {
		res, err := q.Evaluate(d)
		if err != nil || !res.BagEqual(r) {
			t.Errorf("perturbed %s changed the result", q)
		}
		if q.Key() == base[0].Key() {
			t.Errorf("perturbed query identical to base")
		}
		if q.Name == "" {
			t.Error("perturbed queries should be named")
		}
	}
	// Cap respected.
	capped, err := PerturbConstants(d, r, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 1 {
		t.Errorf("maxExtra=1 produced %d", len(capped))
	}
}

func TestGenerateCandidateMagnitude(t *testing.T) {
	// The paper's QC sizes are ~19; our generator should produce a two-digit
	// candidate set on Example 1.1 with the default budget.
	d := employeeDB(t)
	qs, err := Generate(d, exampleResult(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) < 3 {
		t.Errorf("candidate set suspiciously small: %d", len(qs))
		for _, q := range qs {
			t.Logf("  %s", q)
		}
	}
}

// TestGenerateCoveringRowsWithNullOrNaN pins the contract on rows a covering
// term cannot match: NULL matches no comparison, and NaN compares equal to
// every number, so neither is covered by = / IN terms or strict bounds.
// The cluster DNF's variants append covering terms without evaluating
// them, so a term that skips such a row would emit a query that loses it.
func TestGenerateCoveringRowsWithNullOrNaN(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind relation.Kind
		tag  []any
	}{
		{"null", relation.KindString, []any{"x", nil, "y", "z"}},
		{"nan", relation.KindFloat, []any{1.0, math.NaN(), 2.0, 3.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := db.New()
			rel := relation.New("T", relation.NewSchema(
				"id", relation.KindInt, "name", relation.KindString,
				"grp", relation.KindString, "atag", tc.kind))
			rel.Append(
				relation.NewTuple(1, "a", "g1", tc.tag[0]),
				relation.NewTuple(2, "b", "g1", tc.tag[1]),
				relation.NewTuple(3, "c", "g2", tc.tag[2]),
				relation.NewTuple(4, "d", "g2", tc.tag[3]),
			)
			d.MustAddTable(rel)
			r := relation.New("R", relation.NewSchema("name", relation.KindString)).
				Append(relation.NewTuple("a"), relation.NewTuple("b"))
			qs, err := Generate(d, r, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) == 0 {
				t.Fatal("no candidates")
			}
			for _, q := range qs {
				res, err := q.Evaluate(d)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if !res.BagEqual(r) {
					t.Errorf("candidate %s does not produce R: %v", q, res.Tuples)
				}
			}
		})
	}
}
