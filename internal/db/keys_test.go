package db

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"qfe/internal/relation"
)

// validByCopy is the reference Keys.Valid answers for: copy the database,
// apply the edits and validate the copy.
func validByCopy(d *Database, edits []CellEdit) bool {
	c, err := d.ApplyEdits(edits)
	return err == nil && c.Validate() == nil
}

// EditsFromBytes decodes data into cell edits on d, five bytes an edit: the
// table, two bytes of row, the column and the value. Columns below 128 pick
// among the table's key columns, so the edits mostly move keys; 255 names a
// missing column and row 0xffff the row past the end. Values are another
// row's value of the column (key clashes, rewrites onto existing keys),
// NULL, an Int, a Float equal to the row's Int, a string or NaN.
func EditsFromBytes(d *Database, data []byte) []CellEdit {
	tables := d.Tables()
	if len(tables) == 0 {
		return nil
	}
	var out []CellEdit
	for ; len(data) >= 5; data = data[5:] {
		t := tables[int(data[0])%len(tables)]
		e := CellEdit{Table: t.Name, Column: "missing"}
		if r := binary.BigEndian.Uint16(data[1:3]); r == 0xffff || t.Len() == 0 {
			e.Row = t.Len()
		} else {
			e.Row = int(r) % t.Len()
		}
		keys := keyColumns(d, t)
		switch c := int(data[3]); {
		case c == 255 || t.Arity() == 0:
		case c < 128 && len(keys) > 0:
			e.Column = t.Schema[keys[c%len(keys)]].Name
		default:
			e.Column = t.Schema[c%t.Arity()].Name
		}
		ci := t.Schema.IndexOf(e.Column)
		if ci < 0 || e.Row >= t.Len() {
			out = append(out, e)
			continue
		}
		v := int(data[4])
		switch v % 8 {
		case 0, 1, 2:
			e.Value = t.Tuples[(v/8)%t.Len()][ci]
		case 3:
			e.Value = relation.Null()
		case 4:
			e.Value = relation.Int(int64(v / 8))
		case 5:
			if cur := t.Tuples[e.Row][ci]; cur.Kind == relation.KindInt {
				e.Value = relation.Float(float64(cur.I))
			} else {
				e.Value = relation.Float(float64(v / 8))
			}
		case 6:
			e.Value = relation.Str(fmt.Sprintf("k%d", v/8))
		default:
			e.Value = relation.Float(math.NaN())
		}
		out = append(out, e)
	}
	return out
}

// keyColumns lists the column indexes of t that some declared key reads.
func keyColumns(d *Database, t *relation.Relation) []int {
	var cols []string
	for _, pk := range d.PrimaryKeys {
		if pk.Table == t.Name {
			cols = append(cols, pk.Columns...)
		}
	}
	for _, fk := range d.ForeignKeys {
		if fk.ChildTable == t.Name {
			cols = append(cols, fk.ChildColumns...)
		}
		if fk.ParentTable == t.Name {
			cols = append(cols, fk.ParentColumns...)
		}
	}
	var out []int
	for _, c := range cols {
		if i := t.Schema.IndexOf(c); i >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// keysFixtures are the fuzz target's base databases: the two-table fixture,
// a self-referencing employee table with a two-column foreign key, the
// same made invalid (a duplicate key and a dangling reference), and a
// database whose constraint names a missing table.
func keysFixtures(t *testing.T) []*Database {
	emp := func() *Database {
		d := New()
		dept := relation.New("Dept", relation.NewSchema(
			"name", relation.KindString, "site", relation.KindInt, "budget", relation.KindFloat))
		dept.Append(
			relation.NewTuple("eng", 1, 10.5),
			relation.NewTuple("eng", 2, 7.0),
			relation.NewTuple("ops", 1, 3.25),
		)
		e := relation.New("Emp", relation.NewSchema(
			"id", relation.KindInt, "dept", relation.KindString, "site", relation.KindInt,
			"mgr", relation.KindInt, "pay", relation.KindInt))
		e.Append(
			relation.NewTuple(1, "eng", 1, nil, 100),
			relation.NewTuple(2, "eng", 1, 1, 90),
			relation.NewTuple(3, "eng", 2, 1, 80),
			relation.NewTuple(4, "ops", 1, 2, 70),
			relation.NewTuple(5, nil, 1, 4, 60),
		)
		d.MustAddTable(dept)
		d.MustAddTable(e)
		d.AddPrimaryKey("Dept", "name", "site")
		d.AddPrimaryKey("Emp", "id")
		d.AddForeignKey("Emp", []string{"mgr"}, "Emp", []string{"id"})
		d.AddForeignKey("Emp", []string{"dept", "site"}, "Dept", []string{"name", "site"})
		return d
	}
	valid := emp()
	if err := valid.Validate(); err != nil {
		t.Fatalf("employee fixture should validate: %v", err)
	}
	broken := emp()
	broken.Table("Emp").Tuples[1][0] = relation.Float(1)
	broken.Table("Emp").Tuples[3][3] = relation.Int(9)
	if broken.Validate() == nil {
		t.Fatal("broken fixture should not validate")
	}
	ghost := New()
	ghost.MustAddTable(relation.New("T", relation.NewSchema("x", relation.KindInt)))
	ghost.Table("T").Append(relation.NewTuple(1))
	ghost.AddForeignKey("T", []string{"x"}, "ghost", []string{"x"})
	return []*Database{twoTableDB(t), valid, broken, ghost}
}

// TestKeysValid pins the index on hand-picked edit sets against the copy
// and validate reference.
func TestKeysValid(t *testing.T) {
	fx := keysFixtures(t)
	two, emp, broken, ghost := fx[0], fx[1], fx[2], fx[3]
	edit := func(table string, row int, col string, v relation.Value) CellEdit {
		return CellEdit{Table: table, Row: row, Column: col, Value: v}
	}
	cases := []struct {
		name  string
		d     *Database
		edits []CellEdit
		want  bool
	}{
		{"no edits", two, nil, true},
		{"non-key column", two, []CellEdit{edit("T1", 0, "B", relation.Int(7))}, true},
		{"key clash", two, []CellEdit{edit("T1", 1, "A", relation.Int(1))}, false},
		{"key clash through Float alias", two, []CellEdit{edit("T1", 1, "A", relation.Float(1))}, false},
		{"parent key rewrite strands children", two, []CellEdit{edit("T1", 0, "A", relation.Int(9))}, false},
		{"parent and children rewritten together", two, []CellEdit{
			edit("T1", 0, "A", relation.Int(9)), edit("T2", 0, "A", relation.Int(9)),
			edit("T2", 1, "A", relation.Int(9))}, true},
		{"swap two keys", two, []CellEdit{
			edit("T1", 0, "A", relation.Int(2)), edit("T1", 1, "A", relation.Int(1)),
			edit("T2", 0, "A", relation.Int(2)), edit("T2", 1, "A", relation.Int(2)),
			edit("T2", 2, "A", relation.Int(1))}, true},
		{"dangling reference", two, []CellEdit{edit("T2", 2, "A", relation.Int(99))}, false},
		{"NULL reference", two, []CellEdit{edit("T2", 2, "A", relation.Null())}, true},
		{"later edit of a cell wins", two, []CellEdit{
			edit("T2", 2, "A", relation.Int(99)), edit("T2", 2, "A", relation.Int(3))}, true},
		{"row out of range", two, []CellEdit{edit("T1", 3, "B", relation.Int(0))}, false},
		{"missing column", two, []CellEdit{edit("T1", 0, "Z", relation.Int(0))}, false},
		{"missing table", two, []CellEdit{edit("T9", 0, "A", relation.Int(0))}, false},
		{"self reference to a new key", emp, []CellEdit{
			edit("Emp", 4, "id", relation.Int(6)), edit("Emp", 4, "mgr", relation.Int(6))}, true},
		{"manager rewritten away", emp, []CellEdit{edit("Emp", 0, "id", relation.Int(7))}, false},
		{"two-column reference to a missing pair", emp, []CellEdit{
			edit("Emp", 3, "site", relation.Int(2))}, false},
		{"NULL in a two-column reference", emp, []CellEdit{
			edit("Emp", 3, "dept", relation.Null()), edit("Emp", 3, "site", relation.Int(2))}, true},
		{"invalid base stays invalid", broken, []CellEdit{edit("Emp", 4, "pay", relation.Int(1))}, false},
		{"invalid base repaired", broken, []CellEdit{
			edit("Emp", 1, "id", relation.Int(2)), edit("Emp", 3, "mgr", relation.Int(2))}, true},
		{"half repaired", broken, []CellEdit{edit("Emp", 1, "id", relation.Int(2))}, false},
		{"constraint on a missing table", ghost, nil, false},
	}
	for _, tc := range cases {
		if got := NewKeys(tc.d).Valid(tc.edits); got != tc.want {
			t.Errorf("%s: Valid = %v, want %v", tc.name, got, tc.want)
		}
		if ref := validByCopy(tc.d, tc.edits); ref != tc.want {
			t.Errorf("%s: reference = %v, want %v", tc.name, ref, tc.want)
		}
	}
}

// FuzzKeysMatchValidate checks Keys.Valid against copy and validate on
// edit sets decoded from arbitrary bytes. The first byte picks a fixture;
// the second says how many leading edits rewrite the base before the index
// is built, so the fuzzer also reaches bases that are already invalid.
func FuzzKeysMatchValidate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 1, 1, 0, 4, 0, 0, 1, 0, 3, 1, 0, 24})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0, 1, 0, 3, 3, 1, 0, 3, 0, 16})
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fx := keysFixtures(t)
		d := fx[int(data[0])%len(fx)]
		edits := EditsFromBytes(d, data[2:])
		if n := min(int(data[1]), len(edits)); n > 0 {
			base, err := d.ApplyEdits(edits[:n])
			if err != nil {
				return
			}
			d, edits = base, edits[n:]
		}
		if got, want := NewKeys(d).Valid(edits), validByCopy(d, edits); got != want {
			t.Fatalf("Valid(%v) = %v, copy and validate say %v", edits, got, want)
		}
	})
}
