package db

import (
	"testing"

	"qfe/internal/relation"
)

func TestInferForeignKeys(t *testing.T) {
	d := New()
	dept := relation.New("Dept", relation.NewSchema(
		"did", relation.KindInt, "dname", relation.KindString))
	dept.Append(relation.NewTuple(1, "IT"), relation.NewTuple(2, "Sales"))
	emp := relation.New("Emp", relation.NewSchema(
		"eid", relation.KindInt, "ename", relation.KindString, "did", relation.KindInt))
	emp.Append(
		relation.NewTuple(10, "Bob", 1),
		relation.NewTuple(11, "Alice", 2),
		relation.NewTuple(12, "Darren", 1),
	)
	d.MustAddTable(dept)
	d.MustAddTable(emp)

	fks := InferForeignKeys(d)
	found := false
	for _, fk := range fks {
		if fk.ChildTable == "Emp" && fk.ChildColumns[0] == "did" &&
			fk.ParentTable == "Dept" && fk.ParentColumns[0] == "did" {
			found = true
		}
		// No inferred FK may point from a column with values missing in the
		// parent.
		if fk.ChildTable == "Emp" && fk.ChildColumns[0] == "eid" {
			t.Errorf("eid (10..12) is not contained in any parent: %v", fk)
		}
	}
	if !found {
		t.Errorf("Emp.did -> Dept.did not inferred: %v", fks)
	}

	// The inferred FK must let the join machinery work.
	for _, fk := range fks {
		d.ForeignKeys = append(d.ForeignKeys, fk)
	}
	j, err := Join(d, []string{"Emp", "Dept"})
	if err != nil {
		t.Fatalf("join over inferred FK: %v", err)
	}
	if j.Len() != 3 {
		t.Errorf("join size = %d, want 3", j.Len())
	}
}

func TestInferForeignKeysRejectsNonUniqueParents(t *testing.T) {
	d := New()
	a := relation.New("A", relation.NewSchema("x", relation.KindInt))
	a.Append(relation.NewTuple(1), relation.NewTuple(1)) // not unique
	b := relation.New("B", relation.NewSchema("y", relation.KindInt))
	b.Append(relation.NewTuple(1))
	d.MustAddTable(a)
	d.MustAddTable(b)
	for _, fk := range InferForeignKeys(d) {
		if fk.ParentTable == "A" {
			t.Errorf("non-unique column proposed as parent key: %v", fk)
		}
	}
}

func TestInferForeignKeysKindMismatch(t *testing.T) {
	d := New()
	a := relation.New("A", relation.NewSchema("x", relation.KindString))
	a.Append(relation.NewTuple("1"))
	b := relation.New("B", relation.NewSchema("y", relation.KindInt))
	b.Append(relation.NewTuple(1))
	d.MustAddTable(a)
	d.MustAddTable(b)
	if fks := InferForeignKeys(d); len(fks) != 0 {
		t.Errorf("string->int FK inferred: %v", fks)
	}
}

func TestInferForeignKeysNullsIgnored(t *testing.T) {
	d := New()
	p := relation.New("P", relation.NewSchema("k", relation.KindInt))
	p.Append(relation.NewTuple(1), relation.NewTuple(2))
	c := relation.New("C", relation.NewSchema("fk", relation.KindInt))
	c.Append(relation.NewTuple(1), relation.Tuple{relation.Null()})
	d.MustAddTable(p)
	d.MustAddTable(c)
	found := false
	for _, fk := range InferForeignKeys(d) {
		if fk.ChildTable == "C" && fk.ParentTable == "P" {
			found = true
		}
	}
	if !found {
		t.Error("NULLs must not block containment")
	}
}
