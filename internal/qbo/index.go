package qbo

import (
	"math"
	"slices"
	"sort"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// joinIndex memoises, for one join within one Generate or PerturbConstants
// call, what the covering-term search would otherwise rescan the whole join
// for (DESIGN.md §15). Every column fact comes from the join's dictionary
// encoding (db.Joined.Columnar): a categorical column's distinct-value count
// is len(Dict), a numeric column's domain is its sorted dictionary, and a
// row's cluster value is its code. A joinIndex is used by one goroutine.
type joinIndex struct {
	j      *db.Joined
	col    *relation.Columnar
	byName []int                 // column indexes in attribute-name order
	nums   [][]float64           // numericDomain per column, nil until first asked
	groups []relation.Groups     // rowsOf's rows by code per column, built on first ask
	lookup []*relation.DictIndex // codeOf's index per column, nil until first asked

	// Scratch, sized to the largest dictionary seen: per-code term outcomes,
	// and code marks that are all false between calls.
	scratch []bool
	marks   []bool
}

func newJoinIndex(j *db.Joined) *joinIndex {
	schema := j.Schema()
	n := len(schema)
	ix := &joinIndex{j: j, col: j.Columnar(), byName: make([]int, n),
		nums: make([][]float64, n), groups: make([]relation.Groups, n), lookup: make([]*relation.DictIndex, n)}
	for ci := range ix.byName {
		ix.byName[ci] = ci
	}
	sort.Slice(ix.byName, func(a, b int) bool {
		return schema[ix.byName[a]].Name < schema[ix.byName[b]].Name
	})
	return ix
}

// numericDomain returns column ci's distinct non-NaN numeric values in
// ascending order. NaN is dropped because it is neither below nor above
// any bound; NULL and other non-numeric cells carry no position.
func (ix *joinIndex) numericDomain(ci int) []float64 {
	if ix.nums[ci] == nil {
		vals := []float64{}
		for _, v := range ix.col.Col(ci).Dict {
			if v.Kind.Numeric() && !math.IsNaN(v.AsFloat()) {
				vals = append(vals, v.AsFloat())
			}
		}
		sort.Float64s(vals)
		// Distinct codes can share a float (integers beyond 2^53); keep one.
		ix.nums[ci] = slices.Compact(vals)
	}
	return ix.nums[ci]
}

// rowsOf returns the rows of column ci holding code c, in ascending order.
func (ix *joinIndex) rowsOf(ci int, c uint32) []int {
	if ix.groups[ci].Start == nil {
		cd := ix.col.Col(ci)
		ix.groups[ci] = relation.GroupBy(cd.Codes, len(cd.Dict))
	}
	return ix.groups[ci].Of(int(c))
}

// codeOf returns the dictionary code of column ci whose value is KeyEqual
// to v, if the column holds such a value. The column's index is built on
// first use.
func (ix *joinIndex) codeOf(ci int, v relation.Value) (uint32, bool) {
	if ix.lookup[ci] == nil {
		ix.lookup[ci] = relation.NewDictIndex(ix.col.Col(ci).Dict)
	}
	return ix.lookup[ci].Lookup(v)
}

// holdsAll reports whether column ci's dictionary holds, under KeyEqual,
// the value in column k of every tuple of r.
func (ix *joinIndex) holdsAll(ci int, r *relation.Relation, k int) bool {
	for _, t := range r.Tuples {
		if _, ok := ix.codeOf(ci, t[k]); !ok {
			return false
		}
	}
	return true
}

// termBits returns the bitset over rows whose bit k is set iff term t, on
// column ci, evaluates to want on row rows[k]. t is evaluated once per
// dictionary code (algebra.Term.MatchCodes) and each row looks its code's
// outcome up, which is exact because outcomes are constant on the KeyEqual
// classes the codes stand for (DESIGN.md §9).
func (ix *joinIndex) termBits(t *algebra.Term, ci int, rows []int, want bool) []uint64 {
	return codeBits(ix.col.Col(ci).Codes, ix.outcomes(t, ci), rows, want)
}

// outcomes evaluates t once per dictionary code of column ci. The slice is
// scratch, valid until the next call.
func (ix *joinIndex) outcomes(t *algebra.Term, ci int) []bool {
	dict := ix.col.Col(ci).Dict
	if len(ix.scratch) < len(dict) {
		ix.scratch = make([]bool, len(dict))
	}
	oc := ix.scratch[:len(dict)]
	t.MatchCodes(dict, oc)
	return oc
}

// codeBits returns the bitset over rows whose bit k is set iff the outcome
// of row rows[k]'s code is want.
func codeBits(codes []uint32, oc []bool, rows []int, want bool) []uint64 {
	bits := make([]uint64, (len(rows)+63)/64)
	for k, ri := range rows {
		if oc[codes[ri]] == want {
			bits[k>>6] |= 1 << (k & 63)
		}
	}
	return bits
}

// rejects returns the reject set of t over rows: bit k is set iff t, on
// column ci, does not match row rows[k].
func (ix *joinIndex) rejects(t *algebra.Term, ci int, rows []int) []uint64 {
	return ix.termBits(t, ci, rows, false)
}

// covers reports whether the union of reject sets a and b (b may be nil)
// holds all n rows. A conjunct rejects a row iff one of its terms does, so it
// rejects every row of a list iff its terms' reject sets cover the list.
func covers(n int, a, b []uint64) bool {
	for w := range a {
		x := a[w]
		if b != nil {
			x |= b[w]
		}
		want := ^uint64(0)
		if w == len(a)-1 && n%64 != 0 {
			want = 1<<(n%64) - 1
		}
		if x != want {
			return false
		}
	}
	return true
}
