// Package algebra defines the select-project-join (SPJ) query representation
// used throughout QFE: queries of the form π_ℓ(σ_p(J)) where J is the
// foreign-key join of a set of base tables, ℓ a projection list, and p a
// selection predicate in disjunctive normal form whose terms compare an
// attribute with a constant (paper §4).
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/relation"
)

// Op is a comparison operator between an attribute and a constant.
type Op uint8

// Supported comparison operators. In and NotIn take a constant set and are
// used for categorical attributes (paper Example 5.2).
const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpIn
	OpNotIn
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpIn:
		return "IN"
	case OpNotIn:
		return "NOT IN"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Negate returns the complementary operator (= <-> <>, < <-> >=, ...).
func (o Op) Negate() Op {
	switch o {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	case OpIn:
		return OpNotIn
	case OpNotIn:
		return OpIn
	default:
		panic("algebra: negate of unknown op")
	}
}

// Term is a single comparison "Attr op Const" (or "Attr IN Set"). Attr is a
// qualified column name of the joined relation ("Table.col").
type Term struct {
	Attr  string
	Op    Op
	Const relation.Value   // for scalar operators
	Set   []relation.Value // for In / NotIn, kept sorted
}

// NewTerm builds a scalar comparison term.
func NewTerm(attr string, op Op, c relation.Value) Term {
	if op == OpIn || op == OpNotIn {
		panic("algebra: NewTerm with set operator; use NewSetTerm")
	}
	return Term{Attr: attr, Op: op, Const: c}
}

// NewSetTerm builds an IN / NOT IN term. The value set is copied and sorted
// so that equal sets render and fingerprint identically.
func NewSetTerm(attr string, op Op, set []relation.Value) Term {
	if op != OpIn && op != OpNotIn {
		panic("algebra: NewSetTerm requires In or NotIn")
	}
	s := append([]relation.Value(nil), set...)
	sort.Slice(s, func(i, j int) bool { return s[i].Compare(s[j]) < 0 })
	return Term{Attr: attr, Op: op, Set: s}
}

// Matches evaluates the term against a single value. NULL never matches any
// comparison (SQL three-valued logic collapsed to false).
func (t Term) Matches(v relation.Value) bool {
	if v.IsNull() {
		return false
	}
	switch t.Op {
	case OpIn, OpNotIn:
		found := false
		for _, m := range t.Set {
			if v.Equal(m) {
				found = true
				break
			}
		}
		if t.Op == OpIn {
			return found
		}
		return !found
	default:
		c := v.Compare(t.Const)
		switch t.Op {
		case OpEQ:
			return c == 0
		case OpNE:
			return c != 0
		case OpLT:
			return c < 0
		case OpLE:
			return c <= 0
		case OpGT:
			return c > 0
		case OpGE:
			return c >= 0
		}
	}
	return false
}

// String renders the term as SQL.
func (t Term) String() string {
	if t.Op == OpIn || t.Op == OpNotIn {
		parts := make([]string, len(t.Set))
		for i, v := range t.Set {
			parts[i] = v.SQL()
		}
		return fmt.Sprintf("%s %s (%s)", t.Attr, t.Op, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s %s %s", t.Attr, t.Op, t.Const.SQL())
}

// Key returns a canonical encoding for deduplication.
func (t Term) Key() string {
	var b strings.Builder
	b.WriteString(t.Attr)
	b.WriteByte('\x00')
	b.WriteString(t.Op.String())
	b.WriteByte('\x00')
	if t.Op == OpIn || t.Op == OpNotIn {
		for _, v := range t.Set {
			b.WriteString(v.Key())
			b.WriteByte(',')
		}
	} else {
		b.WriteString(t.Const.Key())
	}
	return b.String()
}

// Conjunct is a conjunction (AND) of terms.
type Conjunct []Term

// String renders the conjunct as SQL, parenthesised when needed by the
// caller.
func (c Conjunct) String() string {
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return strings.Join(parts, " AND ")
}

// Key returns a canonical encoding (term order normalised).
func (c Conjunct) Key() string {
	keys := make([]string, len(c))
	for i, t := range c {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

// Predicate is a disjunction (OR) of conjuncts — DNF, as the paper assumes
// (§4). The empty predicate is TRUE (no selection).
type Predicate []Conjunct

// True is the predicate with no selection.
func True() Predicate { return nil }

// String renders the predicate as SQL.
func (p Predicate) String() string {
	if len(p) == 0 {
		return "TRUE"
	}
	if len(p) == 1 {
		return p[0].String()
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// Key returns a canonical encoding (conjunct order normalised).
func (p Predicate) Key() string {
	keys := make([]string, len(p))
	for i, c := range p {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x02")
}

// Attrs returns the distinct attribute names referenced by the predicate,
// sorted. These are the "selection-predicate attributes" whose domains get
// partitioned into tuple classes (§5.1).
func (p Predicate) Attrs() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range p {
		for _, t := range c {
			if !seen[t.Attr] {
				seen[t.Attr] = true
				out = append(out, t.Attr)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Compile resolves the predicate's attribute names against a schema once
// and returns an evaluator of the DNF over tuples of that schema: TRUE for
// the empty predicate, otherwise true when some conjunct's terms all match.
// A conjunct naming a column missing from the schema never matches.
func (p Predicate) Compile(schema relation.Schema) func(relation.Tuple) bool {
	if len(p) == 0 {
		return func(relation.Tuple) bool { return true }
	}
	type ct struct {
		col  int
		term Term
	}
	compiled := make([][]ct, len(p))
	for ci, conj := range p {
		cts := make([]ct, len(conj))
		for ti, t := range conj {
			cts[ti] = ct{col: schema.IndexOf(t.Attr), term: t}
		}
		compiled[ci] = cts
	}
	return func(tup relation.Tuple) bool {
		for _, conj := range compiled {
			ok := true
			for _, c := range conj {
				if c.col < 0 || !c.term.Matches(tup[c.col]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
}
