package relation

import (
	"fmt"
	"strings"
)

// Relation is a named bag (multiset) of tuples over a schema. Tuple order is
// preserved and meaningful for display, but all equality comparisons are
// order-insensitive (bag or set semantics as requested).
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Schema) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Append adds tuples to the relation after checking arity. It returns r for
// chaining in dataset builders.
func (r *Relation) Append(ts ...Tuple) *Relation {
	for _, t := range ts {
		if len(t) != len(r.Schema) {
			panic(fmt.Sprintf("relation: %s: tuple arity %d != schema arity %d",
				r.Name, len(t), len(r.Schema)))
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// Project returns a new relation containing the named columns in order.
// Duplicates are preserved (bag semantics).
func (r *Relation) Project(names []string) (*Relation, error) {
	schema, err := r.Schema.Project(names)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name, err)
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = r.Schema.IndexOf(n)
	}
	out := New(r.Name, schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Project(idx)
	}
	return out, nil
}

// Select returns a new relation containing the tuples for which keep returns
// true. The schema is shared (schemas are immutable by convention).
func (r *Relation) Select(keep func(Tuple) bool) *Relation {
	out := New(r.Name, r.Schema)
	for _, t := range r.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Distinct returns a new relation with duplicate tuples removed, keeping the
// first occurrence of each (set semantics). Duplicates are detected through
// the hash kernel with equality verification on collision (see hash.go);
// the differential tests check it against a string-keyed reference.
func (r *Relation) Distinct() *Relation {
	out := New(r.Name, r.Schema)
	seen := NewBag(len(r.Tuples))
	for _, t := range r.Tuples {
		if seen.Inc(t, 1) == 1 {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// BagEqual reports order-insensitive multiset equality of tuples. Schemas
// must have the same arity; column names are ignored (results are compared
// positionally, as SQL does).
func (r *Relation) BagEqual(s *Relation) bool {
	if r.Arity() != s.Arity() || r.Len() != s.Len() {
		return false
	}
	counts := r.Bag()
	for _, t := range s.Tuples {
		if counts.Inc(t, -1) < 0 {
			return false
		}
	}
	return true
}

// SetEqual reports equality of the distinct tuple sets.
func (r *Relation) SetEqual(s *Relation) bool {
	if r.Arity() != s.Arity() {
		return false
	}
	rs := r.Bag()
	ss := NewBag(len(s.Tuples))
	for _, t := range s.Tuples {
		if rs.Count(t) == 0 {
			return false
		}
		ss.Inc(t, 1)
	}
	missing := false
	rs.ForEach(func(t Tuple, _ int) {
		if ss.Count(t) == 0 {
			missing = true
		}
	})
	return !missing
}

// String renders the relation as an aligned text table, tuples in stored
// order. Used by the CLI, examples and failure messages.
func (r *Relation) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Tuples))
	for ti, t := range r.Tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[ti] = row
	}
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	if r.Name != "" {
		b.WriteString(r.Name)
		b.WriteByte('\n')
	}
	writeRow(r.Schema.Names())
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
		_ = i
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
