package db

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qfe/internal/relation"
)

// Clone deep-copies the database, including constraint declarations: the
// copy that ApplyEdits' copy-on-edit is checked against.
func (d *Database) Clone() *Database {
	c := New()
	for _, t := range d.tables {
		r := relation.New(t.Name, slices.Clone(t.Schema))
		for _, tup := range t.Tuples {
			r.Tuples = append(r.Tuples, tup.Clone())
		}
		c.MustAddTable(r)
	}
	c.PrimaryKeys = slices.Clone(d.PrimaryKeys)
	c.ForeignKeys = slices.Clone(d.ForeignKeys)
	return c
}

// twoTableDB builds the paper's Example 5.4 shape: T1(A,B,C) with T2(A,D)
// where T2.A references T1.A and A=1 fans out to two T2 rows.
func twoTableDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	t1 := relation.New("T1", relation.NewSchema(
		"A", relation.KindInt, "B", relation.KindInt, "C", relation.KindInt))
	t1.Append(
		relation.NewTuple(1, 10, 50),
		relation.NewTuple(2, 80, 45),
		relation.NewTuple(3, 92, 80),
	)
	t2 := relation.New("T2", relation.NewSchema("A", relation.KindInt, "D", relation.KindInt))
	t2.Append(
		relation.NewTuple(1, 20),
		relation.NewTuple(1, 40),
		relation.NewTuple(2, 25),
		relation.NewTuple(3, 20),
	)
	d.MustAddTable(t1)
	d.MustAddTable(t2)
	d.AddPrimaryKey("T1", "A")
	d.AddForeignKey("T2", []string{"A"}, "T1", []string{"A"})
	if err := d.Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
	return d
}

func TestAddTableErrors(t *testing.T) {
	d := New()
	r := relation.New("T", relation.NewSchema("x", relation.KindInt))
	if err := d.AddTable(r); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTable(r); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := d.AddTable(relation.New("", nil)); err == nil {
		t.Error("unnamed table should fail")
	}
	if d.Table("T") != r || d.Table("missing") != nil {
		t.Error("Table lookup broken")
	}
}

func TestValidatePK(t *testing.T) {
	d := twoTableDB(t)
	// Introduce a duplicate key.
	d.Table("T1").Tuples[1][0] = relation.Int(1)
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "primary key violation") {
		t.Errorf("want PK violation, got %v", err)
	}
}

func TestValidateFK(t *testing.T) {
	d := twoTableDB(t)
	d.Table("T2").Tuples[0][0] = relation.Int(99)
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "foreign key") {
		t.Errorf("want FK violation, got %v", err)
	}
	// NULL foreign keys are allowed.
	d2 := twoTableDB(t)
	d2.Table("T2").Tuples[0][0] = relation.Null()
	if err := d2.Validate(); err != nil {
		t.Errorf("NULL FK should be allowed: %v", err)
	}
}

func TestValidateMissingTableConstraints(t *testing.T) {
	d := New()
	d.AddPrimaryKey("ghost", "x")
	if err := d.Validate(); err == nil {
		t.Error("PK on missing table should fail validation")
	}
	d2 := New()
	d2.AddForeignKey("a", []string{"x"}, "b", []string{"y"})
	if err := d2.Validate(); err == nil {
		t.Error("FK on missing tables should fail validation")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := twoTableDB(t)
	c := d.Clone()
	c.Table("T1").Tuples[0][1] = relation.Int(999)
	if d.Table("T1").Tuples[0][1].I != 10 {
		t.Error("Clone must deep-copy tables")
	}
	if len(c.ForeignKeys) != 1 || len(c.PrimaryKeys) != 1 {
		t.Error("Clone must copy constraints")
	}
}

func TestApplyEdits(t *testing.T) {
	d := twoTableDB(t)
	edited, err := d.ApplyEdits([]CellEdit{
		{Table: "T1", Row: 0, Column: "B", Value: relation.Int(11)},
		{Table: "T2", Row: 2, Column: "D", Value: relation.Int(26)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Table("T1").Tuples[0][1].I != 10 {
		t.Error("ApplyEdits must not mutate the receiver")
	}
	if edited.Table("T1").Tuples[0][1].I != 11 || edited.Table("T2").Tuples[2][1].I != 26 {
		t.Error("edits not applied")
	}

	for _, bad := range []CellEdit{
		{Table: "nope", Row: 0, Column: "B", Value: relation.Int(0)},
		{Table: "T1", Row: 99, Column: "B", Value: relation.Int(0)},
		{Table: "T1", Row: 0, Column: "nope", Value: relation.Int(0)},
	} {
		if _, err := d.ApplyEdits([]CellEdit{bad}); err == nil {
			t.Errorf("edit %v should fail", bad)
		}
	}
}

// TestApplyEditsCopiesOnlyEditedRows checks ApplyEdits against a deep copy
// with the edits written into it, on random edit sets over the key
// fixtures: every table of the result is BagEqual to the copy's, the
// receiver is unchanged, and a table or row no edit touches is the
// receiver's own.
func TestApplyEditsCopiesOnlyEditedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	applied := 0
	for _, d := range keysFixtures(t) {
		before := d.Clone()
		for i := 0; i < 50; i++ {
			data := make([]byte, 5*(1+rng.Intn(6)))
			rng.Read(data)
			edits := validEdits(d, data)
			got, err := d.ApplyEdits(edits)
			if err != nil {
				t.Fatal(err)
			}
			want := d.Clone()
			edited := map[string]map[int]bool{}
			for _, e := range edits {
				want.Table(e.Table).Tuples[e.Row][want.Table(e.Table).Schema.IndexOf(e.Column)] = e.Value
				if edited[e.Table] == nil {
					edited[e.Table] = map[int]bool{}
				}
				edited[e.Table][e.Row] = true
			}
			if !slices.Equal(got.TableNames(), d.TableNames()) {
				t.Fatalf("tables %v, receiver's %v", got.TableNames(), d.TableNames())
			}
			for _, tab := range d.Tables() {
				g := got.Table(tab.Name)
				if !g.BagEqual(want.Table(tab.Name)) {
					t.Fatalf("edits %v: table %s %v, deep copy %v", edits, tab.Name, g.Tuples, want.Table(tab.Name).Tuples)
				}
				if edited[tab.Name] == nil && g != tab {
					t.Errorf("edits %v: unedited table %s was copied", edits, tab.Name)
				}
				for ri := range g.Tuples {
					if !edited[tab.Name][ri] && &g.Tuples[ri][0] != &tab.Tuples[ri][0] {
						t.Errorf("edits %v: unedited row %s[%d] was copied", edits, tab.Name, ri)
					}
				}
			}
			for _, tab := range d.Tables() {
				if !slices.EqualFunc(tab.Tuples, before.Table(tab.Name).Tuples, func(a, b relation.Tuple) bool { return sameCells(a, b) }) {
					t.Fatalf("edits %v changed the receiver's table %s", edits, tab.Name)
				}
			}
			applied += len(edits)
		}
	}
	if applied == 0 {
		t.Fatal("no edit applied")
	}
}

// TestForeignKeyColumnListsMustPair pins that a foreign key whose child and
// parent column lists are empty or differ in length is rejected by
// Validate and by the key index, and makes Join fail instead of panicking,
// even when no child row holds a reference.
func TestForeignKeyColumnListsMustPair(t *testing.T) {
	for _, fk := range []ForeignKey{
		{ChildTable: "C", ChildColumns: []string{"x"}, ParentTable: "P", ParentColumns: []string{"a", "b"}},
		{ChildTable: "P", ChildColumns: []string{"a", "b"}, ParentTable: "C", ParentColumns: []string{"x"}},
		{ChildTable: "C", ParentTable: "P"},
	} {
		d := New()
		p := relation.New("P", relation.NewSchema("a", relation.KindInt, "b", relation.KindInt))
		p.Append(relation.NewTuple(1, 2))
		d.MustAddTable(p)
		d.MustAddTable(relation.New("C", relation.NewSchema("x", relation.KindInt)))
		d.ForeignKeys = append(d.ForeignKeys, fk)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepts it", fk)
		}
		if NewKeys(d).Valid(nil) {
			t.Errorf("%s: the key index accepts it", fk)
		}
		for _, tables := range [][]string{{"C", "P"}, {"P", "C"}} {
			if j, err := Join(d, tables); err == nil {
				t.Errorf("%s: Join(%v) gives %d rows, want an error", fk, tables, j.Len())
			}
		}
	}
}

// ModifiedTuples returns the number of distinct (table,row) pairs touched by
// edits, the "µ" of the paper's residual cost model (§3).
func ModifiedTuples(edits []CellEdit) int {
	type key struct {
		t string
		r int
	}
	seen := make(map[key]bool)
	for _, e := range edits {
		seen[key{e.Table, e.Row}] = true
	}
	return len(seen)
}

func TestModifiedCounters(t *testing.T) {
	edits := []CellEdit{
		{Table: "T1", Row: 0, Column: "B"},
		{Table: "T1", Row: 0, Column: "C"},
		{Table: "T1", Row: 1, Column: "B"},
		{Table: "T2", Row: 0, Column: "D"},
	}
	if n := ModifiedRelations(edits); n != 2 {
		t.Errorf("ModifiedRelations = %d, want 2", n)
	}
	if mu := ModifiedTuples(edits); mu != 3 {
		t.Errorf("ModifiedTuples = %d, want 3", mu)
	}
}

func TestJoinProvenance(t *testing.T) {
	d := twoTableDB(t)
	j, err := Join(d, []string{"T1", "T2"})
	if err != nil {
		t.Fatal(err)
	}
	rel := j.Relation()
	if rel.Len() != 4 {
		t.Fatalf("join size = %d, want 4", rel.Len())
	}
	if rel.Arity() != 5 {
		t.Fatalf("join arity = %d, want 5", rel.Arity())
	}
	// Paper §5.4.1: base tuple T1(1,10,50) joins with two T2 rows.
	if got := j.FanOut("T1", 0); got != 2 {
		t.Errorf("FanOut(T1,0) = %d, want 2", got)
	}
	if got := j.FanOut("T1", 1); got != 1 {
		t.Errorf("FanOut(T1,1) = %d, want 1", got)
	}
	// Every joined tuple's provenance must point at its source rows.
	for ti := 0; ti < j.Len(); ti++ {
		t1row := d.Table("T1").Tuples[j.BaseRow(ti, 0)]
		if !rel.Tuples[ti][0].Equal(t1row[0]) {
			t.Errorf("tuple %d provenance mismatch on T1", ti)
		}
		t2row := d.Table("T2").Tuples[j.BaseRow(ti, 1)]
		if !rel.Tuples[ti][4].Equal(t2row[1]) {
			t.Errorf("tuple %d provenance mismatch on T2", ti)
		}
	}
}

func TestJoinQualifiedSchemaAndColRefs(t *testing.T) {
	d := twoTableDB(t)
	j, err := Join(d, []string{"T1", "T2"})
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"T1.A", "T1.B", "T1.C", "T2.A", "T2.D"}
	for i, n := range wantCols {
		if j.Schema()[i].Name != n {
			t.Errorf("col %d = %q, want %q", i, j.Schema()[i].Name, n)
		}
	}
	ref, err := j.ColRefOf("T2.D")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Table != "T2" || ref.Column != "D" || ref.TableIdx != 1 || ref.ColIdx != 1 {
		t.Errorf("ColRefOf(T2.D) = %+v", ref)
	}
	if _, err := j.ColRefOf("T9.X"); err == nil {
		t.Error("missing column should error")
	}
}

func TestJoinDanglingTuplesDropped(t *testing.T) {
	d := twoTableDB(t)
	// T1 row with A=3 joins one T2 row; remove it and re-join.
	d.Table("T2").Tuples = d.Table("T2").Tuples[:3]
	j, err := Join(d, []string{"T1", "T2"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Errorf("dangling T1 row should drop; join size = %d, want 3", j.Len())
	}
}

func TestJoinOrderIndependence(t *testing.T) {
	d := twoTableDB(t)
	a, err := Join(d, []string{"T1", "T2"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Join(d, []string{"T2", "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Errorf("join cardinality should not depend on order: %d vs %d", a.Len(), b.Len())
	}
	// Project both to a common column order and compare as bags.
	pa, _ := a.Relation().Project([]string{"T1.A", "T1.B", "T2.D"})
	pb, _ := b.Relation().Project([]string{"T1.A", "T1.B", "T2.D"})
	if !pa.BagEqual(pb) {
		t.Error("join contents should not depend on order")
	}
}

func TestJoinErrors(t *testing.T) {
	d := twoTableDB(t)
	if _, err := Join(d, nil); err == nil {
		t.Error("empty join should fail")
	}
	if _, err := Join(d, []string{"nope"}); err == nil {
		t.Error("unknown table should fail")
	}
	// Unconnected tables must be rejected.
	d.MustAddTable(relation.New("Island", relation.NewSchema("z", relation.KindInt)))
	if _, err := Join(d, []string{"T1", "Island"}); err == nil {
		t.Error("join without connecting FK should fail")
	}
}

func TestJoinSingleTable(t *testing.T) {
	d := twoTableDB(t)
	j, err := Join(d, []string{"T1"})
	if err != nil {
		t.Fatal(err)
	}
	rel := j.Relation()
	if rel.Len() != 3 || rel.Arity() != 3 {
		t.Errorf("single-table join = %dx%d", rel.Len(), rel.Arity())
	}
	if rel.Schema[0].Name != "T1.A" {
		t.Error("single-table join should still qualify columns")
	}
}

func TestJoinAllAndRebuilt(t *testing.T) {
	d := twoTableDB(t)
	j, err := JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	// Editing a base cell and rebuilding reflects the change.
	edited, err := d.ApplyEdits([]CellEdit{{Table: "T1", Row: 0, Column: "B", Value: relation.Int(77)}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := j.Rebuilt(edited)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	rel := j2.Relation()
	bi := rel.Schema.MustIndexOf("T1.B")
	for _, tup := range rel.Tuples {
		if tup[bi].Equal(relation.Int(77)) {
			found++
		}
	}
	if found != 2 { // fan-out of 2
		t.Errorf("edited value should appear in 2 joined tuples, got %d", found)
	}
}

func TestDatabaseString(t *testing.T) {
	s := twoTableDB(t).String()
	if !strings.Contains(s, "T1(3 cols, 3 rows)") || !strings.Contains(s, "FK T2(A) -> T1(A)") {
		t.Errorf("String() = %q", s)
	}
}

// ColRefOf resolves a qualified column name ("Table.col") of the joined
// schema to its source location.
func (j *Joined) ColRefOf(qualified string) (ColRef, error) {
	i := j.Schema().IndexOf(qualified)
	if i < 0 {
		return ColRef{}, fmt.Errorf("db: joined relation has no column %q", qualified)
	}
	return j.Cols[i], nil
}

// Rebuilt recomputes the join on a (possibly edited) database with the same
// schema, preserving the join order.
func (j *Joined) Rebuilt(d *Database) (*Joined, error) { return Join(d, j.Tables) }
