package tupleclass

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

// Class identifies one tuple class: the subset index chosen for each
// predicate attribute (aligned with Space.Parts). Attributes without
// predicates are irrelevant to query membership and are not part of the
// class (the paper's classes range only over P_QC(A) of predicate
// attributes).
type Class []int

// Hash64 returns a 64-bit hash of the class (subset indexes folded through
// the relation kernel's word hash). Kernel paths bucket classes by it and
// verify with Equal on collision, so Key strings are built once per
// distinct class, not once per tuple.
func (c Class) Hash64() uint64 { return relation.HashInts(c) }

// Key returns a canonical encoding usable as a map key.
func (c Class) Key() string {
	var b strings.Builder
	for i, s := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

// Equal reports whether two classes coincide.
func (c Class) Equal(d Class) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Clone copies the class.
func (c Class) Clone() Class {
	d := make(Class, len(c))
	copy(d, c)
	return d
}

// Distance returns the Hamming distance between two classes — the paper's
// minEdit(s, d) for an (STC, DTC) pair: one attribute modification per
// differing subset.
func (c Class) Distance(d Class) int {
	n := 0
	for i := range c {
		if c[i] != d[i] {
			n++
		}
	}
	return n
}

// termRef locates a term inside the space: partition index and term index
// within that partition.
type termRef struct{ part, term int }

// Space ties together the joined relation, the candidate queries, and the
// per-attribute domain partitions; it answers "does class C match query Q"
// in O(|predicate|) using precompiled term references.
type Space struct {
	// Joined is the join's columnar view. Each predicate attribute's domain
	// is its column dictionary, and a joined row's class is read off its
	// dictionary codes.
	Joined  *relation.Columnar
	Queries []*algebra.Query
	// Attrs lists the selection-predicate attributes (sorted, deduplicated
	// across all queries); Parts is aligned with it.
	Attrs []string
	Parts []*Partition
	// frozen marks attributes (aligned with Attrs) the modification model
	// must not change — join-key columns, whose values decide which base
	// tuples join (see Freeze). EnumerateClassesAt never varies a frozen
	// position, so no planned (STC, DTC) pair rewrites join structure.
	frozen []bool
	// realized[i] lists the subset indexes of Parts[i] occupied by the
	// joined tuples (sorted), computed by Freeze. Reachable modifications
	// keep every tuple's frozen values, so equivalence over the class space
	// restricts frozen attributes to these subsets: classes with unrealized
	// frozen coordinates can never arise on a reachable database.
	realized [][]int

	// programs[q] holds, per conjunct of query q, the refs of its terms.
	programs [][][]termRef
	// projected[q][i] reports whether Attrs[i] occurs in query q's
	// projection list (needed for the x = x' collapse of Lemma 5.1).
	projected [][]bool

	// Query-mask tables (mask.go): words per query mask and per conjunct
	// mask, the conjunct-to-query fold for multi-conjunct predicates, the
	// conjunct masks per (attribute, subset), and the projection masks per
	// attribute and the DISTINCT mask over queries.
	words, conjWords int
	extraOwner       []int
	allConj          []uint64
	conjSat          [][]uint64
	projMask         [][]uint64
	distinctMask     []uint64
}

// NewSpace builds the tuple-class space for a joined relation, given as the
// join's memoised columnar view, and a candidate query set. Every query
// predicate attribute must be a column of the joined relation.
func NewSpace(joined *relation.Columnar, queries []*algebra.Query) (*Space, error) {
	s := &Space{Joined: joined, Queries: queries}

	// Collect terms per attribute, deduplicated by canonical key. keys holds
	// every query term's key in predicate order, so the compile loop below
	// builds none.
	termsByAttr := make(map[string]map[string]algebra.Term)
	var keys []string
	for _, q := range queries {
		for _, conj := range q.Pred {
			for _, t := range conj {
				m := termsByAttr[t.Attr]
				if m == nil {
					m = make(map[string]algebra.Term)
					termsByAttr[t.Attr] = m
				}
				k := t.Key()
				m[k] = t
				keys = append(keys, k)
			}
		}
	}
	s.Attrs = make([]string, 0, len(termsByAttr))
	for a := range termsByAttr {
		s.Attrs = append(s.Attrs, a)
	}
	sort.Strings(s.Attrs)

	attrIdx := make(map[string]int, len(s.Attrs))
	for i, a := range s.Attrs {
		attrIdx[a] = i
	}

	// termIdx[i] maps a term key to its index in Parts[i].Terms, which are
	// in sorted-key order.
	termIdx := make([]map[string]int, len(s.Attrs))
	s.frozen = make([]bool, len(s.Attrs))
	s.Parts = make([]*Partition, len(s.Attrs))
	schema := joined.Schema()
	for i, a := range s.Attrs {
		col := schema.IndexOf(a)
		if col < 0 {
			return nil, fmt.Errorf("tupleclass: predicate attribute %q not in joined schema", a)
		}
		sorted := make([]string, 0, len(termsByAttr[a]))
		for k := range termsByAttr[a] {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		terms := make([]algebra.Term, len(sorted))
		termIdx[i] = make(map[string]int, len(sorted))
		for j, k := range sorted {
			terms[j] = termsByAttr[a][k]
			termIdx[i][k] = j
		}
		s.Parts[i] = buildPartition(a, col, schema[col].Type, terms,
			joined.Col(col).Dict, joined.SortedCodes(col))
	}

	// Compile query predicates into term references.
	s.programs = make([][][]termRef, len(queries))
	s.projected = make([][]bool, len(queries))
	for qi, q := range queries {
		prog := make([][]termRef, len(q.Pred))
		for ci, conj := range q.Pred {
			refs := make([]termRef, len(conj))
			for ti, t := range conj {
				pi := attrIdx[t.Attr]
				refs[ti] = termRef{part: pi, term: termIdx[pi][keys[0]]}
				keys = keys[1:]
			}
			prog[ci] = refs
		}
		s.programs[qi] = prog

		proj := make([]bool, len(s.Attrs))
		for _, col := range q.Projection {
			if i, ok := attrIdx[col]; ok {
				proj[i] = true
			}
		}
		s.projected[qi] = proj
	}
	s.buildMasks()
	return s, nil
}

// Matches reports whether every tuple of class c satisfies query qi — the
// defining property of tuple classes: the answer is the same for all tuples
// of the class.
func (s *Space) Matches(c Class, qi int) bool {
	prog := s.programs[qi]
	if len(prog) == 0 {
		return true // empty predicate is TRUE
	}
	for _, conj := range prog {
		ok := true
		for _, ref := range conj {
			if !s.Parts[ref.part].Subsets[c[ref.part]].Sig[ref.term] {
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

// SourceClass groups the joined tuples belonging to one tuple class — a
// source-tuple class (STC) with its inhabitants.
type SourceClass struct {
	Class Class
	Key   string
	Rows  []int // joined-tuple indexes, ascending
}

// SourceClasses maps every joined tuple to its class and returns the
// occupied classes sorted by key (deterministic enumeration order for
// Algorithm 3). A row's class is read off its dictionary codes through each
// partition's code-to-subset map, and rows are bucketed by class hash with
// Equal verification on collision, so class buffers and Key strings
// materialise only once per distinct class.
func (s *Space) SourceClasses() []SourceClass {
	codes := make([][]uint32, len(s.Parts))
	for i, p := range s.Parts {
		codes[i] = s.Joined.Col(p.Col).Codes
	}
	byHash := make(map[uint64][]*SourceClass)
	var all []*SourceClass
	scratch := make(Class, len(s.Parts))
	for row, n := 0, s.Joined.NumRows(); row < n; row++ {
		for i, p := range s.Parts {
			scratch[i] = p.codeSub[codes[i][row]]
		}
		h := scratch.Hash64()
		var sc *SourceClass
		for _, cand := range byHash[h] {
			if cand.Class.Equal(scratch) {
				sc = cand
				break
			}
		}
		if sc == nil {
			c := scratch.Clone()
			sc = &SourceClass{Class: c, Key: c.Key()}
			byHash[h] = append(byHash[h], sc)
			all = append(all, sc)
		}
		sc.Rows = append(sc.Rows, row)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Key < all[b].Key })
	out := make([]SourceClass, 0, len(all))
	for _, sc := range all {
		out = append(out, *sc)
	}
	return out
}

// Freeze marks the named attributes (qualified joined-schema columns) as
// structurally unmodifiable. A frozen attribute still participates in tuple
// classification and query membership — its value varies across existing
// tuples — but EnumerateClassesAt never changes it, so the modification
// space contains no edit to it, and IndistinguishableGroups restricts it
// to the subsets the joined tuples actually occupy (any reachable database
// keeps each tuple's frozen values). Callers freeze the join-key columns
// (db.Joined.KeyCols): editing one would change which base tuples join,
// which the in-place replacement model of Lemma 5.1 cannot predict.
//
// Freeze is not safe to call concurrently with the Space's other methods;
// call it right after NewSpace, before the space is shared.
func (s *Space) Freeze(attrs []string) {
	matched := false
	for _, a := range attrs {
		for i, b := range s.Attrs {
			if a == b {
				s.frozen[i] = true
				matched = true
			}
		}
	}
	if !matched || s.realized != nil {
		return
	}
	// Record the realized subsets per frozen (indeed, per) partition once;
	// equivalence checks consult it for frozen positions only. Every
	// dictionary code occurs in some joined row, so the realized subsets
	// are the subsets of the codes.
	s.realized = make([][]int, len(s.Parts))
	for i, p := range s.Parts {
		seen := make([]bool, len(p.Subsets))
		for _, sub := range p.codeSub {
			seen[sub] = true
		}
		subs := make([]int, 0, len(seen))
		for sub, ok := range seen {
			if ok {
				subs = append(subs, sub)
			}
		}
		s.realized[i] = subs
	}
}

// EnumerateClassesAt enumerates destination classes at exactly Hamming
// distance dist from src, in deterministic order, invoking yield for each.
// Enumeration stops early when yield returns false. This generates the DTC
// candidates of Algorithm 3's i-th round. Frozen attributes are never
// varied (see Freeze). The class yield receives is borrowed: the
// enumerator rewrites it for the next class, so it is valid only during
// the callback, and a caller that keeps it keeps a Clone.
func (s *Space) EnumerateClassesAt(src Class, dist int, yield func(Class) bool) {
	n := len(s.Parts)
	if dist <= 0 || dist > n {
		return
	}
	positions := make([]int, 0, dist)
	var rec func(start int) bool
	current := src.Clone()
	rec = func(start int) bool {
		if len(positions) == dist {
			return yield(current)
		}
		for p := start; p < n; p++ {
			if s.frozen[p] {
				continue
			}
			if n-p < dist-len(positions) {
				break
			}
			positions = append(positions, p)
			for sub := range s.Parts[p].Subsets {
				if sub == src[p] {
					continue
				}
				current[p] = sub
				if !rec(p + 1) {
					return false
				}
			}
			current[p] = src[p]
			positions = positions[:len(positions)-1]
		}
		return true
	}
	rec(0)
}

// CountClassesAt returns how many classes EnumerateClassesAt yields at
// distance dist, saturating at limit. The count is the same for every
// source class: the dist-th elementary symmetric sum of |P(A)| − 1 over the
// attributes A that are not frozen.
func (s *Space) CountClassesAt(dist, limit int) int {
	if dist <= 0 || dist > len(s.Parts) {
		return 0
	}
	// e[k] is the k-th elementary symmetric sum over the attributes seen.
	e := make([]int, dist+1)
	e[0] = 1
	for p, part := range s.Parts {
		if s.frozen[p] {
			continue
		}
		m := len(part.Subsets) - 1
		for k := dist; k >= 1; k-- {
			if m > 0 && e[k-1] > (limit-e[k])/m {
				e[k] = limit
			} else {
				e[k] += e[k-1] * m
			}
		}
	}
	return min(e[dist], limit)
}

// NumPredicateAttrs returns n, the number of distinct selection-predicate
// attributes (the upper bound of Algorithm 3's outer loop).
func (s *Space) NumPredicateAttrs() int { return len(s.Attrs) }
