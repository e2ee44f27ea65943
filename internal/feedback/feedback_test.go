package feedback

import (
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

func exampleView(t *testing.T) View {
	t.Helper()
	d := db.New()
	emp := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString,
		"gender", relation.KindString, "dept", relation.KindString,
		"salary", relation.KindInt))
	emp.Append(
		relation.NewTuple(1, "Alice", "F", "Sales", 3700),
		relation.NewTuple(2, "Bob", "M", "IT", 4200),
		relation.NewTuple(3, "Celina", "F", "Service", 3000),
		relation.NewTuple(4, "Darren", "M", "IT", 5000),
	)
	d.MustAddTable(emp)

	edits := []db.CellEdit{{Table: "Employee", Row: 1, Column: "salary", Value: relation.Int(3900)}}
	newDB, err := d.ApplyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}

	baseR := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	r1 := relation.New("R", baseR.Schema).Append(baseR.Tuples...) // unchanged (Q1, Q3)
	r2 := relation.New("R", baseR.Schema).Append(relation.NewTuple("Darren"))

	mk := func(name string, term algebra.Term) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred:       algebra.Predicate{algebra.Conjunct{term}}}
	}
	queries := []*algebra.Query{
		mk("Q1", algebra.NewTerm("Employee.gender", algebra.OpEQ, relation.Str("M"))),
		mk("Q2", algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))),
		mk("Q3", algebra.NewTerm("Employee.dept", algebra.OpEQ, relation.Str("IT"))),
	}
	return View{
		Iteration: 1,
		BaseDB:    d,
		BaseR:     baseR,
		NewDB:     newDB,
		Edits:     edits,
		Results:   []*relation.Relation{r1, r2},
		Groups:    [][]int{{0, 2}, {1}},
		Queries:   queries,
	}
}

func TestWorstCaseChoosesLargestSubset(t *testing.T) {
	v := exampleView(t)
	choice, ok, err := WorstCase{}.Choose(v)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if choice != 0 {
		t.Errorf("worst-case choice = %d, want 0 (the {Q1,Q3} block)", choice)
	}
	if _, ok, _ := (WorstCase{}).Choose(View{}); ok {
		t.Error("empty view should not produce a choice")
	}
}

func TestTargetFollowsTargetQuery(t *testing.T) {
	v := exampleView(t)
	// Target = Q2 (salary > 4000): on D1 Bob drops out, so result r2.
	choice, ok, err := Target{Query: v.Queries[1]}.Choose(v)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if choice != 1 {
		t.Errorf("target choice = %d, want 1", choice)
	}
	// Target = Q1: result unchanged, block 0.
	choice, ok, _ = Target{Query: v.Queries[0]}.Choose(v)
	if !ok || choice != 0 {
		t.Errorf("target Q1 choice = %d ok=%v, want 0 true", choice, ok)
	}
}

// TestTargetRebuildsModifiedDB: a view that carries only its edits, as the
// engine's rounds do, gets the same answers as one that carries D′, and a
// view with neither D′ nor D is an error.
func TestTargetRebuildsModifiedDB(t *testing.T) {
	v := exampleView(t)
	edited := v
	edited.NewDB = nil
	for _, q := range v.Queries {
		want, wantOK, err := Target{Query: q}.Choose(v)
		if err != nil {
			t.Fatal(err)
		}
		got, gotOK, err := Target{Query: q}.Choose(edited)
		if err != nil || got != want || gotOK != wantOK {
			t.Errorf("%s: edits-only view chose %d (ok %v, err %v), D′ view %d (ok %v)",
				q.Name, got, gotOK, err, want, wantOK)
		}
	}
	if _, _, err := (Target{Query: v.Queries[0]}).Choose(View{Results: v.Results}); err == nil {
		t.Error("a view with neither D′ nor D should be an error")
	}
}

func TestTargetOutsideCandidates(t *testing.T) {
	v := exampleView(t)
	// A target whose result on D1 matches no block: name = 'Alice'.
	alien := &algebra.Query{Tables: []string{"Employee"}, Projection: []string{"Employee.name"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("Employee.name", algebra.OpEQ, relation.Str("Alice"))}}}
	_, ok, err := Target{Query: alien}.Choose(v)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("target outside candidates must report ok=false")
	}
}

func TestInteractiveOracle(t *testing.T) {
	v := exampleView(t)
	var out strings.Builder
	ia := Interactive{In: strings.NewReader("2\n"), Out: &out}
	choice, ok, err := ia.Choose(v)
	if err != nil || !ok || choice != 1 {
		t.Fatalf("choice=%d ok=%v err=%v", choice, ok, err)
	}
	rendered := out.String()
	for _, want := range []string{"Iteration 1", "salary", "3900", "was 4200", "Bob"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("prompt missing %q:\n%s", want, rendered)
		}
	}
	// "0" means none of the results.
	ia = Interactive{In: strings.NewReader("0\n"), Out: &strings.Builder{}}
	_, ok, err = ia.Choose(v)
	if err != nil || ok {
		t.Errorf("0 should mean none: ok=%v err=%v", ok, err)
	}
	// Garbage then a valid answer.
	ia = Interactive{In: strings.NewReader("x\n9\n1\n"), Out: &strings.Builder{}}
	choice, ok, err = ia.Choose(v)
	if err != nil || !ok || choice != 0 {
		t.Errorf("retry path: choice=%d ok=%v err=%v", choice, ok, err)
	}
	// EOF without an answer.
	ia = Interactive{In: strings.NewReader(""), Out: &strings.Builder{}}
	if _, _, err := ia.Choose(v); err == nil {
		t.Error("EOF should error")
	}
}

func TestFormatEdits(t *testing.T) {
	v := exampleView(t)
	s := FormatEdits(v.BaseDB, v.Edits)
	if !strings.Contains(s, "Employee row 2: salary = [3900]  (was 4200)") {
		t.Errorf("FormatEdits = %q", s)
	}
	if FormatEdits(v.BaseDB, nil) != "  (no changes)\n" {
		t.Error("empty edits should render placeholder")
	}
}

func TestFormatResultDelta(t *testing.T) {
	v := exampleView(t)
	if got := FormatResultDelta(v.BaseR, v.Results[0]); !strings.Contains(got, "identical") {
		t.Errorf("identical delta = %q", got)
	}
	got := FormatResultDelta(v.BaseR, v.Results[1])
	if !strings.Contains(got, "- row 1") || !strings.Contains(got, "Bob") {
		t.Errorf("delta should show Bob's removal, got %q", got)
	}
}

func TestSimulatedUserAccountsTime(t *testing.T) {
	v := exampleView(t)
	u := NewSimulatedUser(Target{Query: v.Queries[1]})
	choice, ok, err := u.Choose(v)
	if err != nil || !ok || choice != 1 {
		t.Fatalf("choice=%d ok=%v err=%v", choice, ok, err)
	}
	if u.Rounds != 1 {
		t.Errorf("rounds = %d", u.Rounds)
	}
	// 1 edit * 3s + 1 result-delta cell * 1.5s + base 2s = 6.5s.
	if got := u.Responded.Seconds(); got < 6 || got > 7 {
		t.Errorf("simulated response = %vs, want ≈6.5s", got)
	}
	// A second round accumulates.
	if _, _, err := u.Choose(v); err != nil {
		t.Fatal(err)
	}
	if u.Rounds != 2 || u.Responded.Seconds() < 12 {
		t.Errorf("accumulation broken: rounds=%d time=%v", u.Rounds, u.Responded)
	}
}
