package codec

import (
	"encoding/json"
	"slices"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// example11 is the paper's Example 1.1: the Employee table, its three
// candidate queries, and the edit that makes D1 (Bob's salary 4200 -> 3900).
func example11() (*db.Database, []*algebra.Query, []db.CellEdit) {
	emp := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString, "gender", relation.KindString,
		"dept", relation.KindString, "salary", relation.KindInt))
	emp.Append(
		relation.NewTuple(1, "Alice", "F", "Sales", 3700),
		relation.NewTuple(2, "Bob", "M", "IT", 4200),
		relation.NewTuple(3, "Celina", "F", "Service", 3000),
		relation.NewTuple(4, "Darren", "M", "IT", 5000),
	)
	d := db.New()
	d.MustAddTable(emp)
	d.AddPrimaryKey("Employee", "Eid")
	q := func(name string, t algebra.Term) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"}, Pred: algebra.Predicate{algebra.Conjunct{t}}}
	}
	qs := []*algebra.Query{
		q("Q1", algebra.NewTerm("Employee.gender", algebra.OpEQ, relation.Str("M"))),
		q("Q2", algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))),
		q("Q3", algebra.NewTerm("Employee.dept", algebra.OpEQ, relation.Str("IT"))),
	}
	edits := []db.CellEdit{{Table: "Employee", Row: 1, Column: "salary", Value: relation.Int(3900)}}
	return d, qs, edits
}

// FuzzDecodeRoundTrip feeds arbitrary JSON to the decoders of the forms
// the HTTP API and snapshots accept: a Database, a []Query and a
// []CellEdit. Decoding must not panic, and whatever decodes must encode,
// marshal, unmarshal and decode again to an equal value.
func FuzzDecodeRoundTrip(f *testing.F) {
	d, qs, edits := example11()
	for _, v := range []any{
		EncodeDatabase(d), EncodeQueries(qs), EncodeEdits(edits),
		EncodeDatabase(sampleDatabase()), EncodeQueries(sampleQueries()), EncodeEdits(sampleEdits()),
	} {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var jd Database
		if json.Unmarshal(data, &jd) == nil {
			if d, err := DecodeDatabase(jd); err == nil {
				var back Database
				rejson(t, EncodeDatabase(d), &back)
				d2, err := DecodeDatabase(back)
				if err != nil {
					t.Fatalf("re-decoding database: %v", err)
				}
				checkSameDatabase(t, d, d2)
			}
		}
		var jq []Query
		if json.Unmarshal(data, &jq) == nil {
			if qs, err := DecodeQueries(jq); err == nil {
				var back []Query
				rejson(t, EncodeQueries(qs), &back)
				qs2, err := DecodeQueries(back)
				if err != nil {
					t.Fatalf("re-decoding queries: %v", err)
				}
				if len(qs2) != len(qs) {
					t.Fatalf("%d queries re-decoded, want %d", len(qs2), len(qs))
				}
				for i := range qs {
					if qs2[i].Key() != qs[i].Key() {
						t.Fatalf("query %d: key %q re-decoded as %q", i, qs[i].Key(), qs2[i].Key())
					}
				}
			}
		}
		var je []CellEdit
		if json.Unmarshal(data, &je) == nil {
			if es, err := DecodeEdits(je); err == nil {
				var back []CellEdit
				rejson(t, EncodeEdits(es), &back)
				es2, err := DecodeEdits(back)
				if err != nil {
					t.Fatalf("re-decoding edits: %v", err)
				}
				if len(es2) != len(es) {
					t.Fatalf("%d edits re-decoded, want %d", len(es2), len(es))
				}
				for i, e := range es {
					e2 := es2[i]
					if e2.Table != e.Table || e2.Row != e.Row || e2.Column != e.Column ||
						e2.Value.Kind != e.Value.Kind || !e2.Value.KeyEqual(e.Value) {
						t.Fatalf("edit %d: %v re-decoded as %v", i, e, e2)
					}
				}
			}
		}
	})
}

// rejson marshals v and unmarshals the bytes into out, as a client and a
// server do across the wire.
func rejson(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

// checkSameDatabase requires the same tables in order, with the same
// names, schemas and bags of rows, and the same constraints.
func checkSameDatabase(t *testing.T, a, b *db.Database) {
	t.Helper()
	if !slices.Equal(a.TableNames(), b.TableNames()) {
		t.Fatalf("tables %v re-decoded as %v", a.TableNames(), b.TableNames())
	}
	for _, name := range a.TableNames() {
		ta, tb := a.Table(name), b.Table(name)
		if !slices.Equal(ta.Schema, tb.Schema) || !ta.BagEqual(tb) {
			t.Fatalf("table %q: %v re-decoded as %v", name, ta, tb)
		}
	}
	samePK := func(x, y db.PrimaryKey) bool {
		return x.Table == y.Table && slices.Equal(x.Columns, y.Columns)
	}
	sameFK := func(x, y db.ForeignKey) bool {
		return x.ChildTable == y.ChildTable && slices.Equal(x.ChildColumns, y.ChildColumns) &&
			x.ParentTable == y.ParentTable && slices.Equal(x.ParentColumns, y.ParentColumns)
	}
	if !slices.EqualFunc(a.PrimaryKeys, b.PrimaryKeys, samePK) ||
		!slices.EqualFunc(a.ForeignKeys, b.ForeignKeys, sameFK) {
		t.Fatalf("constraints %v %v re-decoded as %v %v", a.PrimaryKeys, a.ForeignKeys, b.PrimaryKeys, b.ForeignKeys)
	}
}
