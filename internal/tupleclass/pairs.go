package tupleclass

import "sort"

// Pair is an (STC, DTC) pair: an abstract single-tuple modification that
// moves some tuple of class Src into class Dst (§5.1). EditCost is the
// paper's minEdit(s, d): the number of attribute subsets changed.
type Pair struct {
	Src, Dst Class
	EditCost int
}

// NewPair builds a pair and computes its edit cost.
func NewPair(src, dst Class) Pair {
	return Pair{Src: src, Dst: dst, EditCost: src.Distance(dst)}
}

// Key canonically encodes the pair.
func (p Pair) Key() string { return p.Src.Key() + "->" + p.Dst.Key() }

// ChangedAttrs returns the indexes (into Space.Attrs) of attributes whose
// subset differs between Src and Dst.
func (p Pair) ChangedAttrs() []int {
	var out []int
	for i := range p.Src {
		if p.Src[i] != p.Dst[i] {
			out = append(out, i)
		}
	}
	return out
}

// Lemma 5.1 case codes: the effect of one modified tuple on one query's
// result. caseReplace applies only when the modification touches a projected
// attribute; otherwise the removed and added projected values coincide
// (x = x') and the result is unchanged (caseNone).
const (
	caseNone    = 0 // neither old nor new tuple matches, or x = x'
	caseAdd     = 1 // new tuple enters the result
	caseRemove  = 2 // old tuple leaves the result
	caseReplace = 3 // result tuple x replaced by x'
)

// CaseOf computes the Lemma 5.1 case of pair p for query qi. For queries
// with set semantics (DISTINCT), removals may be masked by surviving
// duplicates, so the symbolic model conservatively treats caseRemove as
// caseNone and caseReplace as caseAdd — the paper's §6.1 "second approach",
// which distinguishes queries through inserted values only. The concrete
// partition computed after concretization remains exact either way.
//
// CaseOf is the per-query reference for CaseMasks, which Algorithms 3 and 4
// use to compute every query's case at once.
func (s *Space) CaseOf(p Pair, qi int) uint8 {
	srcM, dstM := s.Matches(p.Src, qi), s.Matches(p.Dst, qi)
	projChanged := false
	for a := range p.Src {
		if p.Src[a] != p.Dst[a] && s.projected[qi][a] {
			projChanged = true
			break
		}
	}
	distinct := s.Queries[qi].Distinct
	switch {
	case !srcM && !dstM:
		return caseNone
	case !srcM && dstM:
		return caseAdd
	case srcM && !dstM:
		if distinct {
			return caseNone
		}
		return caseRemove
	default: // both match
		if !projChanged {
			return caseNone
		}
		if distinct {
			return caseAdd
		}
		return caseReplace
	}
}

// ReplaceCost returns the cost of a caseReplace effect of pair p on query
// qi: the number of changed attributes that are projected by qi (each is one
// in-place result-tuple modification). Like CaseOf it inlines the
// changed-attribute scan (no ChangedAttrs slice).
func (s *Space) ReplaceCost(p Pair, qi int) int {
	n := 0
	for a := range p.Src {
		if p.Src[a] != p.Dst[a] && s.projected[qi][a] {
			n++
		}
	}
	return n
}

// IndistinguishableGroups clusters queries whose match bit agrees on every
// subset combination reachable by modifications — i.e. queries with equal
// truth tables over the whole class space. Such queries produce identical
// results on every database whose values stay within the probed partitions,
// so QFE merges them up front and reports the group (§2: QFE terminates
// when one query — here, one equivalence class — remains).
//
// Two queries' truth tables can differ only on the attributes either of
// them mentions, so equivalence is decided pairwise over the joint class
// space of the *pair's* attributes — exponential only in the pair's
// attribute count, never in the whole space's. Pairs whose joint space
// exceeds maxCombos are conservatively treated as distinguishable; if they
// are in fact equivalent the database generator discovers it later via
// ErrNoSplit, so correctness is unaffected.
//
// Each query joins the first (lowest-indexed) group whose representative it
// matches: when a comparison was cut by maxCombos, several groups can match
// a query that the representatives' own check kept apart. Groups are created
// in order of their first member, so they come out sorted by it.
func (s *Space) IndistinguishableGroups(maxCombos int) [][]int {
	// Group by representative: truth-table equality is transitive, so
	// comparing against one representative per group suffices.
	var groups [][]int
next:
	for qi := range s.Queries {
		for gi, g := range groups {
			if s.equivalentPair(g[0], qi, maxCombos) {
				groups[gi] = append(g, qi)
				continue next
			}
		}
		groups = append(groups, []int{qi})
	}
	return groups
}

// queryParts returns the partition indexes referenced by query qi.
func (s *Space) queryParts(qi int) []int {
	seen := map[int]bool{}
	var out []int
	for _, conj := range s.programs[qi] {
		for _, ref := range conj {
			if !seen[ref.part] {
				seen[ref.part] = true
				out = append(out, ref.part)
			}
		}
	}
	sort.Ints(out)
	return out
}

// equivalentPair reports whether queries qi and qj agree on every
// *reachable* class of the joint space of their own predicate attributes:
// free attributes range over their whole partition, frozen attributes only
// over the subsets realized by the joined tuples (a reachable modification
// never changes a frozen value, so unrealized frozen coordinates cannot
// occur on any reachable database). It returns false (distinguishable)
// when that space exceeds maxCombos.
func (s *Space) equivalentPair(qi, qj, maxCombos int) bool {
	partSet := map[int]bool{}
	for _, p := range s.queryParts(qi) {
		partSet[p] = true
	}
	for _, p := range s.queryParts(qj) {
		partSet[p] = true
	}
	parts := make([]int, 0, len(partSet))
	for p := range partSet {
		parts = append(parts, p)
	}
	sort.Ints(parts)

	// options[i] is the subset range explored for parts[i]; nil means the
	// whole partition.
	options := make([][]int, len(parts))
	combos := 1
	for i, p := range parts {
		n := len(s.Parts[p].Subsets)
		if s.frozen[p] && s.realized != nil {
			options[i] = s.realized[p]
			n = len(options[i])
		}
		if n == 0 {
			return true // no reachable class involves this attribute
		}
		combos *= n
		if combos > maxCombos {
			return false
		}
	}
	c := make(Class, len(s.Parts)) // irrelevant positions stay 0
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(parts) {
			return s.Matches(c, qi) == s.Matches(c, qj)
		}
		p := parts[i]
		if opts := options[i]; opts != nil {
			for _, sub := range opts {
				c[p] = sub
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		for sub := range s.Parts[p].Subsets {
			c[p] = sub
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}
