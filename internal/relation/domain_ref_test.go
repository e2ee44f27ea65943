package relation

import (
	"math"
	"sort"
)

// ActiveDomain is the row-at-a-time reference for Columnar.SortedCodes: the
// sorted distinct values of the named column, one per KeyEqual class, the
// first seen.
func (r *Relation) ActiveDomain(col string) []Value {
	i := r.Schema.MustIndexOf(col)
	seen := make(map[uint64][]Value)
	var vals []Value
	for _, t := range r.Tuples {
		v := t[i]
		h := v.Hash64()
		dup := false
		for _, w := range seen[h] {
			if w.KeyEqual(v) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], v)
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].Compare(vals[b]) < 0 })
	return vals
}

// SortedDomain reads column ci's dictionary in SortedCodes order: the
// columnar path's active domain, which must equal ActiveDomain value for
// value.
func (c *Columnar) SortedDomain(ci int) []Value {
	dict := c.Col(ci).Dict
	out := make([]Value, 0, len(dict))
	for _, code := range c.SortedCodes(ci) {
		out = append(out, dict[code])
	}
	return out
}

// SameValues reports whether two value lists hold identical values in the
// same order: same kind and the same bits, NaN included.
func SameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.I != y.I || x.S != y.S || x.B != y.B ||
			math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}
