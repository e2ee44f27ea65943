package relation

import "strings"

// Tuple is an ordered list of values aligned with a Schema.
type Tuple []Value

// NewTuple builds a tuple from Go scalars: int/int64 -> Int, float64 ->
// Float, string -> Str, bool -> Bool, nil -> Null, Value passes through.
// It exists to keep dataset builders and tests terse.
func NewTuple(vals ...any) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			t[i] = Null()
		case Value:
			t[i] = x
		case int:
			t[i] = Int(int64(x))
		case int64:
			t[i] = Int(x)
		case float64:
			t[i] = Float(x)
		case string:
			t[i] = Str(x)
		case bool:
			t[i] = Bool(x)
		default:
			panic("relation: NewTuple: unsupported value type")
		}
	}
	return t
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// Equal reports per-position value equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// DiffCount returns the number of positions where t and u differ. Tuples of
// different lengths return the max length (everything differs).
func (t Tuple) DiffCount(u Tuple) int {
	if len(t) != len(u) {
		if len(t) > len(u) {
			return len(t)
		}
		return len(u)
	}
	n := 0
	for i := range t {
		if !t[i].Equal(u[i]) {
			n++
		}
	}
	return n
}

// Key returns a canonical string encoding of the tuple, usable as a map key
// for multiset bookkeeping. Equal tuples (under Value.Equal) share a key.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		v.appendKey(&b)
		b.WriteByte('|')
	}
	return b.String()
}

// Project returns the tuple restricted to the given column indexes.
func (t Tuple) Project(idx []int) Tuple {
	u := make(Tuple, len(idx))
	for i, j := range idx {
		u[i] = t[j]
	}
	return u
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
