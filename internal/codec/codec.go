// Package codec provides a stable JSON representation for QFE's data model —
// values, schemas, relations, databases, cell edits and SPJ queries. It is
// the wire format of the qfe-server HTTP API and the persistence format for
// session snapshots (sessions survive process restarts by serializing their
// state through this package; see internal/core's Snapshot/Restore).
//
// Every Encode*/Decode* pair round-trips exactly: decoding an encoded value
// yields a structurally identical one (relation.Value keys, algebra.Query
// keys and relations' bags of tuples are preserved). The DTO types are
// plain structs with json tags so callers can embed them in larger
// messages.
//
// Snapshots never persist kernel hashes (relation.Value.Hash64,
// relation.Tuple.Hash64); only the canonical string forms (keys) are part
// of the format.
package codec

import (
	"fmt"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// Value is the JSON form of relation.Value. Exactly one of the payload
// fields is set, selected by Kind.
type Value struct {
	Kind  string   `json:"kind"` // "null", "int", "float", "string", "bool"
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Str   *string  `json:"str,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

// EncodeValue converts a relation.Value to its JSON form.
func EncodeValue(v relation.Value) Value {
	switch v.Kind {
	case relation.KindInt:
		i := v.I
		return Value{Kind: "int", Int: &i}
	case relation.KindFloat:
		f := v.F
		return Value{Kind: "float", Float: &f}
	case relation.KindString:
		s := v.S
		return Value{Kind: "string", Str: &s}
	case relation.KindBool:
		b := v.B
		return Value{Kind: "bool", Bool: &b}
	default:
		return Value{Kind: "null"}
	}
}

// DecodeValue converts the JSON form back to a relation.Value.
func DecodeValue(v Value) (relation.Value, error) {
	switch v.Kind {
	case "null":
		return relation.Null(), nil
	case "int":
		if v.Int == nil {
			return relation.Value{}, fmt.Errorf("codec: int value without payload")
		}
		return relation.Int(*v.Int), nil
	case "float":
		if v.Float == nil {
			return relation.Value{}, fmt.Errorf("codec: float value without payload")
		}
		return relation.Float(*v.Float), nil
	case "string":
		if v.Str == nil {
			return relation.Value{}, fmt.Errorf("codec: string value without payload")
		}
		return relation.Str(*v.Str), nil
	case "bool":
		if v.Bool == nil {
			return relation.Value{}, fmt.Errorf("codec: bool value without payload")
		}
		return relation.Bool(*v.Bool), nil
	default:
		return relation.Value{}, fmt.Errorf("codec: unknown value kind %q", v.Kind)
	}
}

// Column is the JSON form of relation.Column.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"` // relation.Kind name: "int", "float", ...
}

func encodeKind(k relation.Kind) string { return k.String() }

func decodeKind(s string) (relation.Kind, error) {
	switch s {
	case "null":
		return relation.KindNull, nil
	case "int":
		return relation.KindInt, nil
	case "float":
		return relation.KindFloat, nil
	case "string":
		return relation.KindString, nil
	case "bool":
		return relation.KindBool, nil
	default:
		return 0, fmt.Errorf("codec: unknown kind %q", s)
	}
}

// Relation is the JSON form of relation.Relation.
type Relation struct {
	Name   string    `json:"name"`
	Schema []Column  `json:"schema"`
	Tuples [][]Value `json:"tuples"`
}

// EncodeRelation converts a relation to its JSON form.
func EncodeRelation(r *relation.Relation) Relation {
	out := Relation{Name: r.Name, Schema: make([]Column, len(r.Schema))}
	for i, c := range r.Schema {
		out.Schema[i] = Column{Name: c.Name, Type: encodeKind(c.Type)}
	}
	out.Tuples = make([][]Value, len(r.Tuples))
	for ti, t := range r.Tuples {
		row := make([]Value, len(t))
		for i, v := range t {
			row[i] = EncodeValue(v)
		}
		out.Tuples[ti] = row
	}
	return out
}

// DecodeRelation converts the JSON form back to a relation.
func DecodeRelation(r Relation) (*relation.Relation, error) {
	schema := make(relation.Schema, len(r.Schema))
	for i, c := range r.Schema {
		k, err := decodeKind(c.Type)
		if err != nil {
			return nil, fmt.Errorf("codec: relation %s column %s: %w", r.Name, c.Name, err)
		}
		schema[i] = relation.Column{Name: c.Name, Type: k}
	}
	out := relation.New(r.Name, schema)
	out.Tuples = make([]relation.Tuple, len(r.Tuples))
	for ti, row := range r.Tuples {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("codec: relation %s row %d: arity %d != schema arity %d",
				r.Name, ti, len(row), len(schema))
		}
		t := make(relation.Tuple, len(row))
		for i, v := range row {
			dv, err := DecodeValue(v)
			if err != nil {
				return nil, fmt.Errorf("codec: relation %s row %d col %d: %w", r.Name, ti, i, err)
			}
			t[i] = dv
		}
		out.Tuples[ti] = t
	}
	return out, nil
}

// Key is the JSON form of a primary-key constraint.
type Key struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// ForeignKey is the JSON form of db.ForeignKey.
type ForeignKey struct {
	ChildTable    string   `json:"childTable"`
	ChildColumns  []string `json:"childColumns"`
	ParentTable   string   `json:"parentTable"`
	ParentColumns []string `json:"parentColumns"`
}

// Database is the JSON form of db.Database.
type Database struct {
	Tables      []Relation   `json:"tables"`
	PrimaryKeys []Key        `json:"primaryKeys,omitempty"`
	ForeignKeys []ForeignKey `json:"foreignKeys,omitempty"`
}

// EncodeDatabase converts a database to its JSON form.
func EncodeDatabase(d *db.Database) Database {
	out := Database{}
	for _, t := range d.Tables() {
		out.Tables = append(out.Tables, EncodeRelation(t))
	}
	for _, pk := range d.PrimaryKeys {
		out.PrimaryKeys = append(out.PrimaryKeys, Key{Table: pk.Table,
			Columns: append([]string(nil), pk.Columns...)})
	}
	for _, fk := range d.ForeignKeys {
		out.ForeignKeys = append(out.ForeignKeys, ForeignKey{
			ChildTable:    fk.ChildTable,
			ChildColumns:  append([]string(nil), fk.ChildColumns...),
			ParentTable:   fk.ParentTable,
			ParentColumns: append([]string(nil), fk.ParentColumns...),
		})
	}
	return out
}

// DecodeDatabase converts the JSON form back to a database.
func DecodeDatabase(d Database) (*db.Database, error) {
	out := db.New()
	for _, t := range d.Tables {
		rel, err := DecodeRelation(t)
		if err != nil {
			return nil, err
		}
		if err := out.AddTable(rel); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
	}
	for _, pk := range d.PrimaryKeys {
		out.AddPrimaryKey(pk.Table, pk.Columns...)
	}
	for _, fk := range d.ForeignKeys {
		out.AddForeignKey(fk.ChildTable, fk.ChildColumns, fk.ParentTable, fk.ParentColumns)
	}
	return out, nil
}

// CellEdit is the JSON form of db.CellEdit.
type CellEdit struct {
	Table  string `json:"table"`
	Row    int    `json:"row"`
	Column string `json:"column"`
	Value  Value  `json:"value"`
}

// EncodeEdits converts cell edits to their JSON form.
func EncodeEdits(edits []db.CellEdit) []CellEdit {
	out := make([]CellEdit, len(edits))
	for i, e := range edits {
		out[i] = CellEdit{Table: e.Table, Row: e.Row, Column: e.Column,
			Value: EncodeValue(e.Value)}
	}
	return out
}

// DecodeEdits converts the JSON form back to cell edits.
func DecodeEdits(edits []CellEdit) ([]db.CellEdit, error) {
	out := make([]db.CellEdit, len(edits))
	for i, e := range edits {
		v, err := DecodeValue(e.Value)
		if err != nil {
			return nil, fmt.Errorf("codec: edit %d: %w", i, err)
		}
		out[i] = db.CellEdit{Table: e.Table, Row: e.Row, Column: e.Column, Value: v}
	}
	return out, nil
}

// Term is the JSON form of algebra.Term.
type Term struct {
	Attr  string  `json:"attr"`
	Op    string  `json:"op"` // SQL spelling: "=", "<>", "<", "<=", ">", ">=", "IN", "NOT IN"
	Const *Value  `json:"const,omitempty"`
	Set   []Value `json:"set,omitempty"`
}

func decodeOp(s string) (algebra.Op, error) {
	switch s {
	case "=":
		return algebra.OpEQ, nil
	case "<>", "!=":
		return algebra.OpNE, nil
	case "<":
		return algebra.OpLT, nil
	case "<=":
		return algebra.OpLE, nil
	case ">":
		return algebra.OpGT, nil
	case ">=":
		return algebra.OpGE, nil
	case "IN":
		return algebra.OpIn, nil
	case "NOT IN":
		return algebra.OpNotIn, nil
	default:
		return 0, fmt.Errorf("codec: unknown operator %q", s)
	}
}

// Query is the JSON form of algebra.Query. Pred is DNF: an OR of ANDs.
type Query struct {
	Name       string   `json:"name,omitempty"`
	Tables     []string `json:"tables"`
	Projection []string `json:"projection"`
	Pred       [][]Term `json:"pred,omitempty"`
	Distinct   bool     `json:"distinct,omitempty"`
	// SQL is the rendered statement, included for human consumers of the
	// HTTP API. DecodeQuery ignores it (the structured fields are
	// authoritative).
	SQL string `json:"sql,omitempty"`
}

// EncodeQuery converts a query to its JSON form.
func EncodeQuery(q *algebra.Query) Query {
	out := Query{
		Name:       q.Name,
		Tables:     append([]string(nil), q.Tables...),
		Projection: append([]string(nil), q.Projection...),
		Distinct:   q.Distinct,
		SQL:        q.SQL(),
	}
	for _, conj := range q.Pred {
		jc := make([]Term, len(conj))
		for i, t := range conj {
			jt := Term{Attr: t.Attr, Op: t.Op.String()}
			if t.Op == algebra.OpIn || t.Op == algebra.OpNotIn {
				jt.Set = make([]Value, len(t.Set))
				for si, v := range t.Set {
					jt.Set[si] = EncodeValue(v)
				}
			} else {
				cv := EncodeValue(t.Const)
				jt.Const = &cv
			}
			jc[i] = jt
		}
		out.Pred = append(out.Pred, jc)
	}
	return out
}

// DecodeQuery converts the JSON form back to a query.
func DecodeQuery(q Query) (*algebra.Query, error) {
	out := &algebra.Query{
		Name:       q.Name,
		Tables:     append([]string(nil), q.Tables...),
		Projection: append([]string(nil), q.Projection...),
		Distinct:   q.Distinct,
	}
	for ci, conj := range q.Pred {
		ac := make(algebra.Conjunct, 0, len(conj))
		for ti, t := range conj {
			op, err := decodeOp(t.Op)
			if err != nil {
				return nil, fmt.Errorf("codec: query %s conjunct %d term %d: %w", q.Name, ci, ti, err)
			}
			if op == algebra.OpIn || op == algebra.OpNotIn {
				set := make([]relation.Value, len(t.Set))
				for si, v := range t.Set {
					set[si], err = DecodeValue(v)
					if err != nil {
						return nil, fmt.Errorf("codec: query %s conjunct %d term %d: %w", q.Name, ci, ti, err)
					}
				}
				ac = append(ac, algebra.NewSetTerm(t.Attr, op, set))
			} else {
				if t.Const == nil {
					return nil, fmt.Errorf("codec: query %s conjunct %d term %d: scalar operator without constant", q.Name, ci, ti)
				}
				c, err := DecodeValue(*t.Const)
				if err != nil {
					return nil, fmt.Errorf("codec: query %s conjunct %d term %d: %w", q.Name, ci, ti, err)
				}
				ac = append(ac, algebra.NewTerm(t.Attr, op, c))
			}
		}
		out.Pred = append(out.Pred, ac)
	}
	return out, nil
}

// EncodeQueries maps EncodeQuery over a slice.
func EncodeQueries(qs []*algebra.Query) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = EncodeQuery(q)
	}
	return out
}

// DecodeQueries maps DecodeQuery over a slice.
func DecodeQueries(qs []Query) ([]*algebra.Query, error) {
	out := make([]*algebra.Query, len(qs))
	for i, q := range qs {
		dq, err := DecodeQuery(q)
		if err != nil {
			return nil, err
		}
		out[i] = dq
	}
	return out, nil
}
