// Package db implements the database substrate for QFE: a collection of
// named relations with primary-key and foreign-key constraints, integrity
// validation (paper §6.3), cell-level edits, and the foreign-key join that
// produces the "universal" relation the winnowing algorithms operate on
// (paper §5). The join records provenance — which base tuple produced each
// joined tuple — which is the paper's "join index" used to track the side
// effects of base-table modifications (§5.4.1).
package db

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"qfe/internal/relation"
)

// PrimaryKey declares that the named columns uniquely identify tuples of a
// table.
type PrimaryKey struct {
	Table   string
	Columns []string
}

// ForeignKey declares that ChildColumns of ChildTable reference
// ParentColumns of ParentTable (which should be the parent's key).
type ForeignKey struct {
	ChildTable    string
	ChildColumns  []string
	ParentTable   string
	ParentColumns []string
}

// checkColumns reports a foreign key whose child and parent column lists
// are empty or differ in length: the join pairs them position by position.
func (fk ForeignKey) checkColumns() error {
	if len(fk.ChildColumns) == 0 || len(fk.ChildColumns) != len(fk.ParentColumns) {
		return fmt.Errorf("db: foreign key %s: child and parent must name the same number of columns, at least one", fk)
	}
	return nil
}

// String renders the constraint as "child(c1,c2) -> parent(p1,p2)".
func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s(%s) -> %s(%s)",
		fk.ChildTable, strings.Join(fk.ChildColumns, ","),
		fk.ParentTable, strings.Join(fk.ParentColumns, ","))
}

// Database is an ordered collection of relations plus declared constraints.
// Table iteration order is the insertion order, which keeps all downstream
// algorithms deterministic.
type Database struct {
	tables []*relation.Relation
	byName map[string]*relation.Relation

	PrimaryKeys []PrimaryKey
	ForeignKeys []ForeignKey
}

// New creates an empty database.
func New() *Database {
	return &Database{byName: make(map[string]*relation.Relation)}
}

// AddTable registers a relation. The name must be unique.
func (d *Database) AddTable(r *relation.Relation) error {
	if r.Name == "" {
		return fmt.Errorf("db: table must be named")
	}
	if _, dup := d.byName[r.Name]; dup {
		return fmt.Errorf("db: duplicate table %q", r.Name)
	}
	d.tables = append(d.tables, r)
	d.byName[r.Name] = r
	return nil
}

// MustAddTable is AddTable that panics on error; for dataset builders.
func (d *Database) MustAddTable(r *relation.Relation) {
	if err := d.AddTable(r); err != nil {
		panic(err)
	}
}

// Table returns the named relation or nil.
func (d *Database) Table(name string) *relation.Relation { return d.byName[name] }

// Tables returns the relations in insertion order. The slice is shared; do
// not mutate it.
func (d *Database) Tables() []*relation.Relation { return d.tables }

// TableNames returns the table names in insertion order.
func (d *Database) TableNames() []string {
	ns := make([]string, len(d.tables))
	for i, t := range d.tables {
		ns[i] = t.Name
	}
	return ns
}

// AddPrimaryKey declares a primary key.
func (d *Database) AddPrimaryKey(table string, cols ...string) {
	d.PrimaryKeys = append(d.PrimaryKeys, PrimaryKey{Table: table, Columns: cols})
}

// AddForeignKey declares a foreign key.
func (d *Database) AddForeignKey(child string, childCols []string, parent string, parentCols []string) {
	d.ForeignKeys = append(d.ForeignKeys, ForeignKey{
		ChildTable: child, ChildColumns: childCols,
		ParentTable: parent, ParentColumns: parentCols,
	})
}

// Validate checks every declared constraint and returns the first violation
// found, or nil. Paper §6.3: modified databases shown to the user must be
// valid.
func (d *Database) Validate() error {
	for _, pk := range d.PrimaryKeys {
		t := d.Table(pk.Table)
		if t == nil {
			return fmt.Errorf("db: primary key on missing table %q", pk.Table)
		}
		idx, err := columnIndexes(t, pk.Columns)
		if err != nil {
			return fmt.Errorf("db: primary key %s: %w", pk.Table, err)
		}
		seen := make(map[string]int, t.Len())
		for i, tup := range t.Tuples {
			k := tup.Project(idx).Key()
			if j, dup := seen[k]; dup {
				return fmt.Errorf("db: %s: primary key violation: rows %d and %d share key %s",
					pk.Table, j, i, tup.Project(idx))
			}
			seen[k] = i
		}
	}
	for _, fk := range d.ForeignKeys {
		if err := d.validateFK(fk); err != nil {
			return err
		}
	}
	return nil
}

func (d *Database) validateFK(fk ForeignKey) error {
	child, parent := d.Table(fk.ChildTable), d.Table(fk.ParentTable)
	if child == nil || parent == nil {
		return fmt.Errorf("db: foreign key %s: missing table", fk)
	}
	if err := fk.checkColumns(); err != nil {
		return err
	}
	ci, err := columnIndexes(child, fk.ChildColumns)
	if err != nil {
		return fmt.Errorf("db: foreign key %s: %w", fk, err)
	}
	pi, err := columnIndexes(parent, fk.ParentColumns)
	if err != nil {
		return fmt.Errorf("db: foreign key %s: %w", fk, err)
	}
	keys := make(map[string]bool, parent.Len())
	for _, tup := range parent.Tuples {
		keys[tup.Project(pi).Key()] = true
	}
	for i, tup := range child.Tuples {
		ref := tup.Project(ci)
		null := false
		for _, v := range ref {
			if v.IsNull() {
				null = true
				break
			}
		}
		if null {
			continue // NULL references are permitted, as in SQL.
		}
		if !keys[ref.Key()] {
			return fmt.Errorf("db: foreign key %s: row %d references missing key %s", fk, i, ref)
		}
	}
	return nil
}

// CellEdit identifies one attribute-value modification in a base table
// (paper edit operation E1).
type CellEdit struct {
	Table  string
	Row    int
	Column string
	Value  relation.Value
}

// String renders the edit as "table[row].col = value".
func (e CellEdit) String() string {
	return fmt.Sprintf("%s[%d].%s = %s", e.Table, e.Row, e.Column, e.Value)
}

// ApplyEdits returns the database with the edits applied; the receiver is
// unchanged. Only what the edits touch is copied: an edited table gets a
// fresh row slice and each edited row a fresh tuple, and every other table
// and row is shared with the receiver. Both the result and the receiver
// must therefore be treated as read-only. An out-of-range edit returns an
// error.
func (d *Database) ApplyEdits(edits []CellEdit) (*Database, error) {
	if err := d.CheckEdits(edits); err != nil {
		return nil, err
	}
	c := &Database{tables: slices.Clone(d.tables), byName: maps.Clone(d.byName),
		PrimaryKeys: slices.Clone(d.PrimaryKeys), ForeignKeys: slices.Clone(d.ForeignKeys)}
	type rowRef struct {
		table string
		row   int
	}
	copied := map[rowRef]bool{}
	for _, e := range edits {
		t, ci, _ := c.editTarget(e)
		if t == d.byName[e.Table] {
			t = &relation.Relation{Name: t.Name, Schema: t.Schema, Tuples: slices.Clone(t.Tuples)}
			c.tables[slices.Index(c.tables, d.byName[e.Table])] = t
			c.byName[e.Table] = t
		}
		if r := (rowRef{e.Table, e.Row}); !copied[r] {
			t.Tuples[e.Row] = t.Tuples[e.Row].Clone()
			copied[r] = true
		}
		t.Tuples[e.Row][ci] = e.Value
	}
	return c, nil
}

// CheckEdits returns the error ApplyEdits would return for the edits — the
// first one naming a missing table or column, or a row out of range —
// without copying the database.
func (d *Database) CheckEdits(edits []CellEdit) error {
	for _, e := range edits {
		if _, _, err := d.editTarget(e); err != nil {
			return err
		}
	}
	return nil
}

// editTarget resolves an edit to its table and column index.
func (d *Database) editTarget(e CellEdit) (*relation.Relation, int, error) {
	t := d.Table(e.Table)
	if t == nil {
		return nil, 0, fmt.Errorf("db: edit %s: no such table", e)
	}
	if e.Row < 0 || e.Row >= t.Len() {
		return nil, 0, fmt.Errorf("db: edit %s: row out of range (table has %d rows)", e, t.Len())
	}
	ci := t.Schema.IndexOf(e.Column)
	if ci < 0 {
		return nil, 0, fmt.Errorf("db: edit %s: no such column", e)
	}
	return t, ci, nil
}

// ModifiedRelations returns the number of distinct tables touched by edits,
// the "n" of the paper's dbCost = minEdit + β·n (Eq. 3).
func ModifiedRelations(edits []CellEdit) int {
	seen := make(map[string]bool)
	for _, e := range edits {
		seen[e.Table] = true
	}
	return len(seen)
}

func columnIndexes(t *relation.Relation, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.Schema.IndexOf(c)
		if j < 0 {
			return nil, fmt.Errorf("column %q not in table %q", c, t.Name)
		}
		idx[i] = j
	}
	return idx, nil
}

// String summarises the database (tables, arities, cardinalities,
// constraints) for logs and the CLI.
func (d *Database) String() string {
	var b strings.Builder
	names := d.TableNames()
	sort.Strings(names)
	for _, n := range names {
		t := d.Table(n)
		fmt.Fprintf(&b, "%s(%d cols, %d rows)\n", n, t.Arity(), t.Len())
	}
	for _, fk := range d.ForeignKeys {
		fmt.Fprintf(&b, "FK %s\n", fk)
	}
	return b.String()
}
