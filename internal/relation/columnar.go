// Columnar representation (DESIGN.md §9).
//
// A Columnar is a dictionary-encoded, column-oriented view of a Relation:
// per column, every row holds a dense uint32 code into a small dictionary of
// representative values, built through the hash kernel (hash bucket plus
// KeyEqual verification, so codes are exact regardless of hash quality —
// including under ForceHashCollisionsForTesting).
//
// The batch evaluator (internal/algebra) exploits one invariant: any
// predicate term whose outcome is defined through Value.Compare / Value.Equal
// is CONSTANT on KeyEqual classes. KeyEqual groups exactly the values whose
// canonical Key agrees — Int(3) ≡ Float(3.0) inside the exactly-representable
// window, one class per NaN, per bool, per string — and Compare cannot
// distinguish two members of such a class against any third value. A term can
// therefore be evaluated ONCE per dictionary code (on the representative) and
// looked up per row, instead of once per row, without changing a single
// outcome relative to the scalar row-at-a-time path.
package relation

import (
	"sort"
	"sync"
)

// ColumnDict is one dictionary-encoded column: Codes[row] indexes Dict, and
// Dict holds the first-seen representative of each KeyEqual class in the
// column. len(Dict) is the column's distinct-value count under KeyEqual.
type ColumnDict struct {
	Codes []uint32
	Dict  []Value
}

// Columnar is the column-oriented view of Source. Source is retained because
// materialisation must project the actual row values (a dictionary
// representative is only KeyEqual to the row value, e.g. Int(3) for a row
// holding Float(3.0)); the dictionaries serve predicate evaluation only.
//
// Column dictionaries are built lazily on first access (Col): predicates of
// a candidate set typically reference a few columns of a wide join, so the
// unreferenced columns never pay the O(rows) encode. The Source relation is
// treated as immutable; a Columnar is safe for concurrent use.
type Columnar struct {
	Source *Relation
	cols   []ColumnDict
	once   []sync.Once
	// sorted[ci] is column ci's dictionary codes in ascending value order,
	// built on first SortedCodes access.
	sorted     [][]uint32
	sortedOnce []sync.Once
}

// NewColumnar prepares the columnar view of r. Per-column cost (one hash +
// bucket probe per cell) is deferred to the first Col access of each column;
// the view is meant to be built once per relation and shared by every batch
// evaluation over it (db.Joined memoises it per join).
func NewColumnar(r *Relation) *Columnar {
	return &Columnar{
		Source:     r,
		cols:       make([]ColumnDict, r.Arity()),
		once:       make([]sync.Once, r.Arity()),
		sorted:     make([][]uint32, r.Arity()),
		sortedOnce: make([]sync.Once, r.Arity()),
	}
}

// Col returns the dictionary encoding of column ci, building it on first
// access (concurrency-safe; subsequent calls are a sync.Once fast path).
func (c *Columnar) Col(ci int) *ColumnDict {
	c.once[ci].Do(func() { c.cols[ci] = encodeColumn(c.Source, ci) })
	return &c.cols[ci]
}

// SortedCodes returns column ci's dictionary codes in ascending
// Value.Compare order, sorting them on first access (concurrency-safe, like
// Col). Col(ci).Dict read in this order is the column's sorted active
// domain: one representative per KeyEqual class, the first seen, in the
// order a sort.Slice of those representatives produces.
func (c *Columnar) SortedCodes(ci int) []uint32 {
	c.sortedOnce[ci].Do(func() {
		dict := c.Col(ci).Dict
		order := make([]uint32, len(dict))
		for i := range order {
			order[i] = uint32(i)
		}
		sort.Slice(order, func(a, b int) bool { return dict[order[a]].Compare(dict[order[b]]) < 0 })
		c.sorted[ci] = order
	})
	return c.sorted[ci]
}

// encodeColumn dictionary-encodes one column through the hash kernel.
func encodeColumn(r *Relation, ci int) ColumnDict {
	n := r.Len()
	codes := make([]uint32, n)
	var dict []Value
	buckets := make(map[uint64][]uint32, n)
	for ri, t := range r.Tuples {
		v := t[ci]
		h := v.Hash64()
		code := ^uint32(0)
		for _, cand := range buckets[h] {
			if dict[cand].KeyEqual(v) {
				code = cand
				break
			}
		}
		if code == ^uint32(0) {
			code = uint32(len(dict))
			dict = append(dict, v)
			buckets[h] = append(buckets[h], code)
		}
		codes[ri] = code
	}
	return ColumnDict{Codes: codes, Dict: dict}
}

// NumRows returns the number of rows of the source relation.
func (c *Columnar) NumRows() int { return c.Source.Len() }

// Schema returns the source relation's schema.
func (c *Columnar) Schema() Schema { return c.Source.Schema }
