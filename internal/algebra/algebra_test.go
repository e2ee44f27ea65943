package algebra

import (
	"strings"
	"testing"
	"testing/quick"

	"qfe/internal/db"
	"qfe/internal/relation"
)

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
	return d
}

func TestOpMatchesAndNegate(t *testing.T) {
	v := relation.Int(10)
	cases := []struct {
		op   Op
		c    relation.Value
		want bool
	}{
		{OpEQ, relation.Int(10), true},
		{OpEQ, relation.Int(11), false},
		{OpNE, relation.Int(11), true},
		{OpLT, relation.Int(11), true},
		{OpLT, relation.Int(10), false},
		{OpLE, relation.Int(10), true},
		{OpGT, relation.Int(9), true},
		{OpGE, relation.Int(10), true},
		{OpGE, relation.Int(11), false},
	}
	for _, c := range cases {
		term := NewTerm("x", c.op, c.c)
		if term.Matches(v) != c.want {
			t.Errorf("10 %v %v = %v, want %v", c.op, c.c, !c.want, c.want)
		}
		// Negation must invert on non-null values.
		neg := term
		neg.Op = term.Op.Negate()
		if neg.Matches(v) == term.Matches(v) {
			t.Errorf("negation of %v should invert", c.op)
		}
	}
}

func TestSetTerm(t *testing.T) {
	in := NewSetTerm("x", OpIn, []relation.Value{relation.Str("b"), relation.Str("a")})
	if !in.Matches(relation.Str("a")) || in.Matches(relation.Str("z")) {
		t.Error("IN membership broken")
	}
	notIn := NewSetTerm("x", OpNotIn, []relation.Value{relation.Str("a")})
	if notIn.Matches(relation.Str("a")) || !notIn.Matches(relation.Str("z")) {
		t.Error("NOT IN membership broken")
	}
	// Sets are sorted canonically so equal sets share keys.
	in2 := NewSetTerm("x", OpIn, []relation.Value{relation.Str("a"), relation.Str("b")})
	if in.Key() != in2.Key() {
		t.Error("set order should not affect Key")
	}
	if !strings.Contains(in.String(), "IN ('a', 'b')") {
		t.Errorf("String = %q", in.String())
	}
}

func TestNullNeverMatches(t *testing.T) {
	ops := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	for _, op := range ops {
		if NewTerm("x", op, relation.Int(1)).Matches(relation.Null()) {
			t.Errorf("NULL must not match %v", op)
		}
	}
	if NewSetTerm("x", OpIn, []relation.Value{relation.Int(1)}).Matches(relation.Null()) {
		t.Error("NULL must not match IN")
	}
	if NewSetTerm("x", OpNotIn, []relation.Value{relation.Int(1)}).Matches(relation.Null()) {
		t.Error("NULL must not match NOT IN (three-valued logic collapsed)")
	}
}

func TestPredicateDNF(t *testing.T) {
	schema := relation.NewSchema("A", relation.KindInt, "B", relation.KindInt)
	// (A<=50 AND B>60) OR (A>80)
	p := Predicate{
		Conjunct{NewTerm("A", OpLE, relation.Int(50)), NewTerm("B", OpGT, relation.Int(60))},
		Conjunct{NewTerm("A", OpGT, relation.Int(80))},
	}
	cases := []struct {
		a, b int
		want bool
	}{
		{40, 70, true},
		{40, 50, false},
		{90, 0, true},
		{60, 99, false},
	}
	for _, c := range cases {
		tup := relation.NewTuple(c.a, c.b)
		if p.Matches(schema, tup) != c.want || p.Compile(schema)(tup) != c.want {
			t.Errorf("p(%d,%d) = %v, want %v", c.a, c.b, !c.want, c.want)
		}
	}
	if !True().Matches(schema, relation.NewTuple(1, 2)) || !True().Compile(schema)(relation.NewTuple(1, 2)) {
		t.Error("empty predicate is TRUE")
	}
	attrs := p.Attrs()
	if len(attrs) != 2 || attrs[0] != "A" || attrs[1] != "B" {
		t.Errorf("Attrs = %v", attrs)
	}
}

func TestPredicateKeyNormalisesOrder(t *testing.T) {
	p1 := Predicate{
		Conjunct{NewTerm("A", OpLE, relation.Int(1)), NewTerm("B", OpGT, relation.Int(2))},
		Conjunct{NewTerm("C", OpEQ, relation.Int(3))},
	}
	p2 := Predicate{
		Conjunct{NewTerm("C", OpEQ, relation.Int(3))},
		Conjunct{NewTerm("B", OpGT, relation.Int(2)), NewTerm("A", OpLE, relation.Int(1))},
	}
	if p1.Key() != p2.Key() {
		t.Error("predicate Key should normalise conjunct and term order")
	}
}

func TestQueryEvaluatePaperExample(t *testing.T) {
	d := employeeDB(t)
	// Paper Example 1.1: Q1 = π_name(σ_gender='M'(Employee)).
	q1 := &Query{
		Name:       "Q1",
		Tables:     []string{"Employee"},
		Projection: []string{"Employee.name"},
		Pred:       Predicate{Conjunct{NewTerm("Employee.gender", OpEQ, relation.Str("M"))}},
	}
	got, err := q1.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New("", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	if !got.BagEqual(want) {
		t.Errorf("Q1 result:\n%s", got)
	}

	// Q2 = salary > 4000, Q3 = dept = 'IT' produce the same result on D.
	q2 := &Query{Tables: []string{"Employee"}, Projection: []string{"Employee.name"},
		Pred: Predicate{Conjunct{NewTerm("Employee.salary", OpGT, relation.Int(4000))}}}
	q3 := &Query{Tables: []string{"Employee"}, Projection: []string{"Employee.name"},
		Pred: Predicate{Conjunct{NewTerm("Employee.dept", OpEQ, relation.Str("IT"))}}}
	r2, _ := q2.Evaluate(d)
	r3, _ := q3.Evaluate(d)
	if !r2.BagEqual(want) || !r3.BagEqual(want) {
		t.Error("all three candidates should produce R on D (paper Example 1.1)")
	}
}

func TestQueryDistinct(t *testing.T) {
	d := employeeDB(t)
	q := &Query{Tables: []string{"Employee"}, Projection: []string{"Employee.dept"}, Distinct: true}
	got, err := q.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("distinct dept count = %d, want 3", got.Len())
	}
}

func TestQuerySQLAndString(t *testing.T) {
	q := &Query{
		Name:       "Q",
		Tables:     []string{"A", "B"},
		Projection: []string{"A.x"},
		Pred: Predicate{
			Conjunct{NewTerm("A.x", OpGT, relation.Int(1)), NewTerm("B.y", OpEQ, relation.Str("z"))},
			Conjunct{NewTerm("A.x", OpLT, relation.Int(0))},
		},
		Distinct: true,
	}
	sql := q.SQL()
	for _, want := range []string{"SELECT DISTINCT A.x", "FROM A JOIN B",
		"(A.x > 1 AND B.y = 'z') OR (A.x < 0)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	if !strings.HasPrefix(q.String(), "Q: ") {
		t.Errorf("String = %q", q.String())
	}
	qs := &Query{Tables: []string{"A"}}
	if !strings.Contains(qs.SQL(), "SELECT *") {
		t.Errorf("empty projection should render *: %q", qs.SQL())
	}
}

func TestQueryCloneAndFingerprint(t *testing.T) {
	q := &Query{
		Tables:     []string{"A"},
		Projection: []string{"A.x"},
		Pred: Predicate{Conjunct{
			NewSetTerm("A.x", OpIn, []relation.Value{relation.Int(1), relation.Int(2)})}},
	}
	c := q.Clone()
	if c.Key() != q.Key() {
		t.Error("clone should share the canonical key")
	}
	// Queries are immutable once Key has been called; variants must be made
	// by mutating a fresh clone BEFORE its first use. The mutated clone's
	// encodings must diverge (proving Clone deep-copies the term sets rather
	// than aliasing them), while the original's memoised key is untouched.
	m := q.Clone()
	m.Pred[0][0].Set[0] = relation.Int(99)
	if m.Key() == q.Key() {
		t.Error("clone must deep-copy term sets")
	}
	if q.Key() != c.Key() {
		t.Error("original key must be stable")
	}
	// Memoisation: repeated calls return the identical key material.
	if q.Key() != q.Key() || q.JoinSchemaKey() != q.JoinSchemaKey() {
		t.Error("Key/JoinSchemaKey must be deterministic")
	}
	// Join schema key is order-insensitive.
	a := &Query{Tables: []string{"A", "B"}}
	b := &Query{Tables: []string{"B", "A"}}
	if a.JoinSchemaKey() != b.JoinSchemaKey() {
		t.Error("JoinSchemaKey should sort tables")
	}
}

func TestDeltaOnJoined(t *testing.T) {
	d := employeeDB(t)
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	rel := j.Relation()
	q := &Query{Name: "Q", Tables: []string{"Employee"}, Projection: []string{"Employee.name"},
		Pred: Predicate{Conjunct{NewTerm("Employee.salary", OpGT, relation.Int(4000))}}}
	base, err := q.EvaluateOnJoined(rel)
	if err != nil {
		t.Fatal(err)
	}

	// Modify Bob's salary 4200 -> 3900 (paper Example 1.1, database D1):
	// Bob leaves the salary>4000 result.
	si := rel.Schema.MustIndexOf("Employee.salary")
	newBob := rel.Tuples[1].Clone()
	newBob[si] = relation.Int(3900)
	delta, err := q.DeltaOnJoined(rel, map[int]relation.Tuple{1: newBob})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Removed) != 1 || len(delta.Added) != 0 {
		t.Fatalf("delta = %+v, want 1 removal", delta)
	}
	if delta.Removed[0][0].S != "Bob" {
		t.Errorf("removed = %v", delta.Removed[0])
	}

	// Incremental result equals from-scratch evaluation.
	newRel := ApplyDelta(base, delta)
	edited, err := d.ApplyEdits([]db.CellEdit{{Table: "Employee", Row: 1, Column: "salary", Value: relation.Int(3900)}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := q.Evaluate(edited)
	if err != nil {
		t.Fatal(err)
	}
	if !newRel.BagEqual(direct) {
		t.Errorf("incremental %v vs direct %v", newRel.Tuples, direct.Tuples)
	}
	// The hashed fingerprint of the delta result must agree with a direct
	// full evaluation encoded the same way (same bag of tuples).
	if got, want := q.DeltaFingerprint(base, delta), q.DeltaFingerprint(direct, ResultDelta{}); got != want {
		t.Errorf("DeltaFingerprint diverges from direct evaluation: %v vs %v", got, want)
	}
}

func TestDeltaFingerprintGroupsQueriesCorrectly(t *testing.T) {
	d := employeeDB(t)
	j, _ := db.JoinAll(d)
	rel := j.Relation()
	mkQ := func(name string, p Predicate) *Query {
		return &Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"}, Pred: p}
	}
	q1 := mkQ("Q1", Predicate{Conjunct{NewTerm("Employee.gender", OpEQ, relation.Str("M"))}})
	q2 := mkQ("Q2", Predicate{Conjunct{NewTerm("Employee.salary", OpGT, relation.Int(4000))}})
	q3 := mkQ("Q3", Predicate{Conjunct{NewTerm("Employee.dept", OpEQ, relation.Str("IT"))}})

	// D1: Bob's salary 4200 -> 3900. Paper: {Q1,Q3} keep R, {Q2} drops Bob.
	si := rel.Schema.MustIndexOf("Employee.salary")
	newBob := rel.Tuples[1].Clone()
	newBob[si] = relation.Int(3900)
	mod := map[int]relation.Tuple{1: newBob}

	fps := make(map[ResultFP][]string)
	for _, q := range []*Query{q1, q2, q3} {
		base, err := q.EvaluateOnJoined(rel)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := q.DeltaOnJoined(rel, mod)
		if err != nil {
			t.Fatal(err)
		}
		fp := q.DeltaFingerprint(base, delta)
		fps[fp] = append(fps[fp], q.Name)
	}
	if len(fps) != 2 {
		t.Fatalf("want 2 result groups, got %d: %v", len(fps), fps)
	}
	for _, group := range fps {
		switch len(group) {
		case 1:
			if group[0] != "Q2" {
				t.Errorf("singleton group should be Q2, got %v", group)
			}
		case 2: // Q1, Q3 together
		default:
			t.Errorf("unexpected group %v", group)
		}
	}
}

func TestDeltaErrors(t *testing.T) {
	d := employeeDB(t)
	j, _ := db.JoinAll(d)
	rel := j.Relation()
	q := &Query{Tables: []string{"Employee"}, Projection: []string{"nope"}}
	if _, err := q.DeltaOnJoined(rel, nil); err == nil {
		t.Error("bad projection should error")
	}
	q2 := &Query{Tables: []string{"Employee"}, Projection: []string{"Employee.name"}}
	if _, err := q2.DeltaOnJoined(rel, map[int]relation.Tuple{99: nil}); err == nil {
		t.Error("row out of range should error")
	}
	if _, err := (&Query{Tables: []string{"ghost"}}).Evaluate(d); err == nil {
		t.Error("evaluate on missing table should error")
	}
}

func TestApplyDeltaBagSemantics(t *testing.T) {
	base := relation.New("r", relation.NewSchema("x", relation.KindInt)).
		Append(relation.NewTuple(1), relation.NewTuple(1), relation.NewTuple(2))
	delta := ResultDelta{
		Removed: []relation.Tuple{relation.NewTuple(1)},
		Added:   []relation.Tuple{relation.NewTuple(3)},
	}
	got := ApplyDelta(base, delta)
	want := relation.New("r", base.Schema).
		Append(relation.NewTuple(1), relation.NewTuple(2), relation.NewTuple(3))
	if !got.BagEqual(want) {
		t.Errorf("ApplyDelta = %v", got.Tuples)
	}
	if !delta.Empty() == (len(delta.Removed) == 0 && len(delta.Added) == 0) {
		t.Error("Empty() inconsistent")
	}
}

func TestIncrementalMatchesDirectQuick(t *testing.T) {
	// Property: for random single-cell salary edits, incremental evaluation
	// equals from-scratch evaluation.
	d := employeeDB(t)
	j, _ := db.JoinAll(d)
	rel := j.Relation()
	q := &Query{Name: "Q", Tables: []string{"Employee"}, Projection: []string{"Employee.name"},
		Pred: Predicate{Conjunct{NewTerm("Employee.salary", OpGT, relation.Int(4000))}}}
	base, _ := q.EvaluateOnJoined(rel)
	si := rel.Schema.MustIndexOf("Employee.salary")

	f := func(rowRaw uint8, salary int16) bool {
		row := int(rowRaw) % rel.Len()
		newT := rel.Tuples[row].Clone()
		newT[si] = relation.Int(int64(salary))
		delta, err := q.DeltaOnJoined(rel, map[int]relation.Tuple{row: newT})
		if err != nil {
			return false
		}
		incr := ApplyDelta(base, delta)
		edited, err := d.ApplyEdits([]db.CellEdit{{
			Table: "Employee", Row: row, Column: "salary", Value: relation.Int(int64(salary))}})
		if err != nil {
			return false
		}
		direct, err := q.Evaluate(edited)
		if err != nil {
			return false
		}
		return incr.BagEqual(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
