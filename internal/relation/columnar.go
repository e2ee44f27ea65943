// Columnar representation (DESIGN.md §9).
//
// A Columnar is a dictionary-encoded, column-oriented view of a table: per
// column, every row holds a dense uint32 code into a small dictionary of
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
//
// A view either holds a Relation's rows (NewColumnar) or gathers each column
// from a column of another view through a row vector (NewGathered) — the
// form of a foreign-key join, whose row i of a base table's column is that
// table's row rows[i]. A gathered column's codes are its base column's codes
// renumbered in first-seen order, so gathering re-hashes nothing.
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

// Gather locates a gathered column: row i of it is row Rows[i] of column Col
// of Base, and a nil Rows is the identity.
type Gather struct {
	Base *Columnar
	Col  int
	Rows []int
}

// Columnar is the column-oriented view of a table. Cells stay readable
// (Cell) because materialisation must project the actual row values (a
// dictionary representative is only KeyEqual to the row value, e.g. Int(3)
// for a row holding Float(3.0)); the dictionaries serve predicate evaluation
// only.
//
// Column dictionaries are built lazily on first access (Col): predicates of
// a candidate set typically reference a few columns of a wide join, so the
// unreferenced columns never pay the O(rows) encode. The rows behind a view
// are treated as immutable; a Columnar is safe for concurrent use.
type Columnar struct {
	name   string
	schema Schema
	n      int
	src    *Relation // the rows of a NewColumnar view
	from   []Gather  // per column, the source of a NewGathered view

	cols []ColumnDict
	once []sync.Once
	// sorted[ci] is column ci's dictionary codes in ascending value order,
	// built on first SortedCodes access.
	sorted     [][]uint32
	sortedOnce []sync.Once
}

// NewColumnar prepares the columnar view of r. Per-column cost (one hash +
// bucket probe per cell) is deferred to the first Col access of each column.
func NewColumnar(r *Relation) *Columnar {
	c := newColumnar(r.Name, r.Schema, r.Len())
	c.src = r
	return c
}

// NewGathered prepares a view of n rows whose column ci is gathered as
// from[ci] says. Column ci's codes are from[ci].Base's codes through the row
// vector, renumbered in first-seen order, and each dictionary representative
// is the first row's own cell: exactly what NewColumnar would build over the
// gathered rows, without hashing a cell.
func NewGathered(name string, schema Schema, n int, from []Gather) *Columnar {
	c := newColumnar(name, schema, n)
	c.from = from
	return c
}

func newColumnar(name string, schema Schema, n int) *Columnar {
	return &Columnar{
		name:       name,
		schema:     schema,
		n:          n,
		cols:       make([]ColumnDict, len(schema)),
		once:       make([]sync.Once, len(schema)),
		sorted:     make([][]uint32, len(schema)),
		sortedOnce: make([]sync.Once, len(schema)),
	}
}

// Col returns the dictionary encoding of column ci, building it on first
// access (concurrency-safe; subsequent calls are a sync.Once fast path).
func (c *Columnar) Col(ci int) *ColumnDict {
	c.once[ci].Do(func() {
		if c.src != nil {
			c.cols[ci] = encodeColumn(c.src.Tuples, ci)
		} else {
			c.cols[ci] = c.from[ci].gather()
		}
	})
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

// encodeColumn dictionary-encodes column ci of the tuples through a
// DictIndex that grows as the cells bring new values.
func encodeColumn(tuples []Tuple, ci int) ColumnDict {
	codes := make([]uint32, len(tuples))
	x := DictIndex{slots: make([]uint32, 16)}
	for ri, t := range tuples {
		codes[ri] = x.code(t[ci])
	}
	return ColumnDict{Codes: codes, Dict: x.dict}
}

// gather encodes a gathered column by renumbering its base column's codes
// in first-seen order; the representative of each code is the first
// gathered row's own cell. This gives the codes and dictionary encodeColumn
// gives over the gathered cells, without hashing a cell.
func (g Gather) gather() ColumnDict {
	base := g.Base.Col(g.Col)
	if g.Rows == nil {
		return *base
	}
	codes := make([]uint32, len(g.Rows))
	// seen[b] is base code b's gathered code plus one, 0 while unseen.
	seen := make([]uint32, len(base.Dict))
	var n uint32
	for i, r := range g.Rows {
		b := base.Codes[r]
		if seen[b] == 0 {
			n++
			seen[b] = n
		}
		codes[i] = seen[b] - 1
	}
	// Codes are numbered in first-seen order, so code c first occurs at the
	// first row holding c once codes 0..c-1 have all occurred.
	dict := make([]Value, n)
	next := uint32(0)
	for i := 0; next < n; i++ {
		if codes[i] == next {
			dict[next] = g.Base.Cell(g.Rows[i], g.Col)
			next++
		}
	}
	return ColumnDict{Codes: codes, Dict: dict}
}

// DictIndex finds values in a dictionary of KeyEqual-distinct values: an
// open-addressing table of codes, probed by a value's hash and verified
// with KeyEqual, so a lookup is exact whatever the hashes do (including
// under ForceHashCollisionsForTesting). It is not safe for concurrent use
// while it grows.
type DictIndex struct {
	dict   []Value
	hashes []uint64 // hashes[c] is dict[c]'s hash
	// slots holds a code plus one, 0 when empty; its length is a power of
	// two at least twice the number of codes.
	slots []uint32
}

// NewDictIndex indexes dict, whose values must be KeyEqual-distinct (a
// ColumnDict's Dict is); code c is dict[c].
func NewDictIndex(dict []Value) *DictIndex {
	x := &DictIndex{dict: dict, hashes: make([]uint64, len(dict))}
	for c, v := range dict {
		x.hashes[c] = v.Hash64()
	}
	n := 16
	for n < 2*len(dict) {
		n *= 2
	}
	x.slots = rehash(x.hashes, n)
	return x
}

// Lookup returns the code of the dictionary value KeyEqual to v, if the
// dictionary holds one.
func (x *DictIndex) Lookup(v Value) (uint32, bool) {
	_, c := x.probe(v, v.Hash64())
	return c, c != noCode
}

// code returns v's code, appending v to the dictionary when it holds no
// KeyEqual value.
func (x *DictIndex) code(v Value) uint32 {
	h := v.Hash64()
	i, c := x.probe(v, h)
	if c != noCode {
		return c
	}
	c = uint32(len(x.dict))
	x.dict = append(x.dict, v)
	x.hashes = append(x.hashes, h)
	x.slots[i] = c + 1
	if 2*len(x.hashes) > len(x.slots) {
		x.slots = rehash(x.hashes, 2*len(x.slots))
	}
	return c
}

// probe returns the code of the value KeyEqual to v, whose hash is h, and
// its slot; or noCode and the empty slot where v would go.
func (x *DictIndex) probe(v Value, h uint64) (uint64, uint32) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for s := x.slots[i]; s != 0; s = x.slots[i] {
		if c := s - 1; x.hashes[c] == h && x.dict[c].KeyEqual(v) {
			return i, c
		}
		i = (i + 1) & mask
	}
	return i, noCode
}

// rehash places codes 0..len(hashes)-1 in a fresh slot table of n slots (a
// power of two); a slot holds a code plus one, and 0 when empty.
func rehash(hashes []uint64, n int) []uint32 {
	slots := make([]uint32, n)
	mask := uint64(n - 1)
	for c, h := range hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(c) + 1
	}
	return slots
}

// noCode marks a value the dictionary does not hold.
const noCode = ^uint32(0)

// Groups lists positions grouped by key: the positions holding key k are
// Items[Start[k]:Start[k+1]], in ascending order.
type Groups struct {
	Start []int
	Items []int
}

// GroupBy groups the positions of keys by key, for keys below n: a
// counting sort into one list with start offsets per key.
func GroupBy[K int | uint32](keys []K, n int) Groups {
	start := make([]int, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 1; k <= n; k++ {
		start[k] += start[k-1]
	}
	items := make([]int, len(keys))
	next := append([]int(nil), start[:n]...)
	for i, k := range keys {
		items[next[k]] = i
		next[k]++
	}
	return Groups{Start: start, Items: items}
}

// Of returns the positions holding key k, ascending. The slice is shared;
// do not mutate it.
func (g Groups) Of(k int) []int { return g.Items[g.Start[k]:g.Start[k+1]] }

// Cell returns column ci's value on row ri.
func (c *Columnar) Cell(ri, ci int) Value {
	if c.src != nil {
		return c.src.Tuples[ri][ci]
	}
	g := &c.from[ci]
	if g.Rows != nil {
		ri = g.Rows[ri]
	}
	return g.Base.Cell(ri, g.Col)
}

// Project returns a fresh tuple of row ri's cells in columns idx.
func (c *Columnar) Project(ri int, idx []int) Tuple {
	t := make(Tuple, len(idx))
	for i, ci := range idx {
		t[i] = c.Cell(ri, ci)
	}
	return t
}

// NumRows returns the number of rows.
func (c *Columnar) NumRows() int { return c.n }

// Schema returns the view's schema.
func (c *Columnar) Schema() Schema { return c.schema }

// Name returns the name of the table the view encodes.
func (c *Columnar) Name() string { return c.name }
