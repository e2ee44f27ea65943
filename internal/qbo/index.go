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
	byName []int       // column indexes in attribute-name order
	nums   [][]float64 // numericDomain per column, nil until first asked
	groups []codeGroups

	// Scratch, sized to the largest dictionary seen: per-code term outcomes,
	// and code marks that are all false between calls.
	outcomes []bool
	marks    []bool
}

// codeGroups lists one column's rows grouped by dictionary code, each group
// in ascending row order: code c's rows are rows[start[c]:start[c+1]].
type codeGroups struct {
	start []int
	rows  []int
}

func newJoinIndex(j *db.Joined) *joinIndex {
	n := j.Rel.Arity()
	ix := &joinIndex{j: j, col: j.Columnar(), byName: make([]int, n),
		nums: make([][]float64, n), groups: make([]codeGroups, n)}
	for ci := range ix.byName {
		ix.byName[ci] = ci
	}
	schema := j.Rel.Schema
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
	g := &ix.groups[ci]
	if g.start == nil {
		cd := ix.col.Col(ci)
		g.start = make([]int, len(cd.Dict)+1)
		for _, code := range cd.Codes {
			g.start[code+1]++
		}
		for k := 1; k < len(g.start); k++ {
			g.start[k] += g.start[k-1]
		}
		next := slices.Clone(g.start[:len(cd.Dict)])
		g.rows = make([]int, len(cd.Codes))
		for ri, code := range cd.Codes {
			g.rows[next[code]] = ri
			next[code]++
		}
	}
	return g.rows[g.start[c]:g.start[c+1]]
}

// termBits returns the bitset over rows whose bit k is set iff term t, on
// column ci, evaluates to want on row rows[k]. t is evaluated once per
// dictionary code (algebra.Term.MatchCodes) and each row looks its code's
// outcome up, which is exact because outcomes are constant on the KeyEqual
// classes the codes stand for (DESIGN.md §9).
func (ix *joinIndex) termBits(t *algebra.Term, ci int, rows []int, want bool) []uint64 {
	cd := ix.col.Col(ci)
	if len(ix.outcomes) < len(cd.Dict) {
		ix.outcomes = make([]bool, len(cd.Dict))
	}
	oc := ix.outcomes[:len(cd.Dict)]
	t.MatchCodes(cd.Dict, oc)
	bits := make([]uint64, (len(rows)+63)/64)
	for k, ri := range rows {
		if oc[cd.Codes[ri]] == want {
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
