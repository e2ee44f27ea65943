package codec

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []relation.Value{
		relation.Null(),
		relation.Int(0),
		relation.Int(-42),
		relation.Int(math.MaxInt64),
		relation.Float(3.14),
		relation.Float(-0.001),
		relation.Float(1e300),
		relation.Str(""),
		relation.Str("O'Brien"),
		relation.Str("line\nbreak \"quoted\" ünïcode"),
		relation.Bool(true),
		relation.Bool(false),
	}
	for _, v := range vals {
		enc := EncodeValue(v)
		data, err := json.Marshal(enc)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var dec Value
		if err := json.Unmarshal(data, &dec); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got, err := DecodeValue(dec)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got.Key() != v.Key() || got.Kind != v.Kind {
			t.Errorf("round-trip %v -> %v", v, got)
		}
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := []Value{
		{Kind: "int"},     // missing payload
		{Kind: "float"},   // missing payload
		{Kind: "string"},  // missing payload
		{Kind: "bool"},    // missing payload
		{Kind: "decimal"}, // unknown kind
		{Kind: ""},        // empty kind
	}
	for _, v := range bad {
		if _, err := DecodeValue(v); err == nil {
			t.Errorf("DecodeValue(%+v) should fail", v)
		}
	}
}

func sampleRelation() *relation.Relation {
	r := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString,
		"rate", relation.KindFloat, "active", relation.KindBool))
	r.Append(
		relation.NewTuple(1, "Alice", 3.5, true),
		relation.NewTuple(2, "Bob", 4.25, false),
	)
	r.Tuples = append(r.Tuples, relation.Tuple{
		relation.Int(3), relation.Null(), relation.Float(0), relation.Bool(true)})
	return r
}

func TestRelationRoundTrip(t *testing.T) {
	r := sampleRelation()
	data, err := json.Marshal(EncodeRelation(r))
	if err != nil {
		t.Fatal(err)
	}
	var dec Relation
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRelation(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != r.Name || !slices.Equal(got.Schema, r.Schema) {
		t.Errorf("schema/name changed: %v vs %v", got.Schema, r.Schema)
	}
	if !got.BagEqual(r) {
		t.Fatalf("tuples changed")
	}
	for i := range r.Tuples {
		if !got.Tuples[i].Equal(r.Tuples[i]) {
			t.Errorf("tuple %d changed (order must be preserved): %v vs %v", i, got.Tuples[i], r.Tuples[i])
		}
	}
}

func TestDecodeRelationArityMismatch(t *testing.T) {
	enc := EncodeRelation(sampleRelation())
	enc.Tuples[0] = enc.Tuples[0][:2]
	if _, err := DecodeRelation(enc); err == nil {
		t.Error("short row should fail")
	}
}

func sampleDatabase() *db.Database {
	d := db.New()
	d.MustAddTable(sampleRelation())
	dept := relation.New("Dept", relation.NewSchema("did", relation.KindInt))
	dept.Append(relation.NewTuple(1))
	d.MustAddTable(dept)
	d.AddPrimaryKey("Employee", "Eid")
	d.AddForeignKey("Employee", []string{"Eid"}, "Dept", []string{"did"})
	return d
}

func TestDatabaseRoundTrip(t *testing.T) {
	d := sampleDatabase()
	data, err := json.Marshal(EncodeDatabase(d))
	if err != nil {
		t.Fatal(err)
	}
	var dec Database
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDatabase(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TableNames()) != 2 || got.TableNames()[0] != "Employee" {
		t.Errorf("table order changed: %v", got.TableNames())
	}
	if !got.Table("Employee").BagEqual(d.Table("Employee")) {
		t.Error("table content changed")
	}
	if len(got.PrimaryKeys) != 1 || len(got.ForeignKeys) != 1 {
		t.Errorf("constraints lost: %+v %+v", got.PrimaryKeys, got.ForeignKeys)
	}
	if got.ForeignKeys[0].String() != d.ForeignKeys[0].String() {
		t.Errorf("FK changed: %s vs %s", got.ForeignKeys[0], d.ForeignKeys[0])
	}
}

func sampleEdits() []db.CellEdit {
	return []db.CellEdit{
		{Table: "Employee", Row: 1, Column: "salary", Value: relation.Int(4500)},
		{Table: "Employee", Row: 0, Column: "name", Value: relation.Str("Eve")},
	}
}

func TestEditsRoundTrip(t *testing.T) {
	edits := sampleEdits()
	data, err := json.Marshal(EncodeEdits(edits))
	if err != nil {
		t.Fatal(err)
	}
	var dec []CellEdit
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEdits(dec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edits {
		if got[i].String() != edits[i].String() {
			t.Errorf("edit %d: %s vs %s", i, got[i], edits[i])
		}
	}
}

func sampleQueries() []*algebra.Query {
	return []*algebra.Query{
		{
			Name:       "Q1",
			Tables:     []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred: algebra.Predicate{algebra.Conjunct{
				algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))}},
		},
		{
			Name:       "Qset",
			Tables:     []string{"Employee", "Dept"},
			Projection: []string{"Employee.name", "Dept.dname"},
			Distinct:   true,
			Pred: algebra.Predicate{
				algebra.Conjunct{
					algebra.NewSetTerm("Employee.dept", algebra.OpIn,
						[]relation.Value{relation.Str("IT"), relation.Str("Sales")}),
					algebra.NewTerm("Employee.salary", algebra.OpLE, relation.Float(99.5)),
				},
				algebra.Conjunct{
					algebra.NewSetTerm("Employee.gender", algebra.OpNotIn,
						[]relation.Value{relation.Str("M")}),
				},
			},
		},
		{Name: "Qtrue", Tables: []string{"T"}, Projection: []string{"T.a"}},
	}
}

func TestQueryRoundTrip(t *testing.T) {
	for _, q := range sampleQueries() {
		data, err := json.Marshal(EncodeQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		var dec Query
		if err := json.Unmarshal(data, &dec); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeQuery(dec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != q.Key() {
			t.Errorf("%s: key changed\n%q\n%q", q.Name, q.Key(), got.Key())
		}
		if got.SQL() != q.SQL() {
			t.Errorf("%s: SQL changed: %s vs %s", q.Name, got.SQL(), q.SQL())
		}
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	if _, err := DecodeQuery(Query{Tables: []string{"T"},
		Pred: [][]Term{{{Attr: "T.a", Op: "~"}}}}); err == nil {
		t.Error("unknown operator should fail")
	}
	if _, err := DecodeQuery(Query{Tables: []string{"T"},
		Pred: [][]Term{{{Attr: "T.a", Op: "="}}}}); err == nil {
		t.Error("scalar op without constant should fail")
	}
}

func TestEncodeQueryIncludesSQL(t *testing.T) {
	q := &algebra.Query{Name: "Q", Tables: []string{"T"}, Projection: []string{"T.a"}}
	if enc := EncodeQuery(q); enc.SQL != q.SQL() {
		t.Errorf("SQL = %q, want %q", enc.SQL, q.SQL())
	}
}
