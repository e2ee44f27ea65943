package qbo

import (
	"math/bits"
	"sort"

	"qfe/internal/algebra"
)

// growSearch is the conjunct search of one (join, projection) pair
// (DESIGN.md §15). Its units are single covering terms and lower-and-upper
// bound pairs on one attribute, sorted by how many excluded rows they
// admit, fewest first. A conjunct of units separates when no excluded row
// passes all of them, and a separating conjunct is a candidate when the
// rows it selects project onto exactly R.
//
// Both tests run on bitsets built from per-code term outcomes: a unit's
// admit mask over the excluded rows, and its selection over the listed
// rows, which are the required rows followed by the optional rows.
type growSearch struct {
	terms    [][]algebra.Term // each unit: 1..maxTermsPerAttr terms on one attribute
	cols     []int            // the unit's attribute, as its column in the join
	admits   [][]uint64       // the excluded rows the unit admits
	sels     [][]uint64       // the listed rows the unit selects
	excluded int              // number of excluded rows
	arity    int              // columns of the join

	// What accepts checks a selection against: the group (groups) of each
	// listed row and R's multiplicity per group. got and sel are scratch;
	// got is zero between calls.
	group []uint32
	need  []int
	rLen  int
	got   []int
	sel   []uint64
}

// newGrowSearch builds the units of pools for the row classification rc,
// whose required rows are the anchors when nothing is required.
func newGrowSearch(ix *joinIndex, pools []attrPool, rc rowClass, gs groups, rLen int) *growSearch {
	listed := append(append([]int(nil), rc.required...), rc.optional...)
	var u growSearch // the units in pool order
	for _, p := range pools {
		pool := p.terms
		codes := ix.col.Col(p.ci).Codes
		first := len(u.terms)
		for pi := range pool {
			oc := ix.outcomes(&pool[pi], p.ci)
			u.add(pool[pi:pi+1:pi+1], p.ci, codeBits(codes, oc, rc.excluded, true), codeBits(codes, oc, listed, true))
		}
		// Range conjunctions (maxTermsPerAttr = 2): pair a lower bound with
		// an upper bound; their bitsets are the ANDs of the bounds' own.
		for li, lo := range pool {
			if lo.Op != algebra.OpGT && lo.Op != algebra.OpGE {
				continue
			}
			for hi2, hi := range pool {
				if hi.Op != algebra.OpLT && hi.Op != algebra.OpLE {
					continue
				}
				l, h := first+li, first+hi2
				u.add([]algebra.Term{lo, hi}, p.ci, and(u.admits[l], u.admits[h]), and(u.sels[l], u.sels[h]))
			}
		}
	}
	// Strongest exclusion first: units admitting fewer excluded rows lead
	// to separating conjuncts at shallower depths, which matters because
	// the search is node-budgeted.
	pop := make([]int, len(u.terms))
	order := make([]int, len(u.terms))
	for i, m := range u.admits {
		for _, w := range m {
			pop[i] += bits.OnesCount64(w)
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pop[order[a]] < pop[order[b]] })
	s := &growSearch{excluded: len(rc.excluded), arity: len(ix.j.Schema()),
		group: make([]uint32, len(listed)), need: gs.need, rLen: rLen,
		got: make([]int, len(gs.need)), sel: make([]uint64, (len(listed)+63)/64)}
	for _, i := range order {
		s.add(u.terms[i], u.cols[i], u.admits[i], u.sels[i])
	}
	for k, ri := range listed {
		s.group[k] = gs.of[ri]
	}
	return s
}

func (s *growSearch) add(terms []algebra.Term, ci int, admit, sel []uint64) {
	s.terms = append(s.terms, terms)
	s.cols = append(s.cols, ci)
	s.admits = append(s.admits, admit)
	s.sels = append(s.sels, sel)
}

func and(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for w := range out {
		out[w] = a[w] & b[w]
	}
	return out
}

// run walks the search depth first over sets of units on distinct
// attributes, in unit order. It offers each conjunct whose units admit no
// excluded row and grows it no further, since a larger conjunct would only
// add redundant terms. It skips a unit that admits every excluded row its
// parent conjunct admits, conjuncts of more than maxPredAttrs units, and
// every node past maxGrowNodes. offer receives the conjunct's units and
// returns true to stop the search. run returns the number of nodes visited.
//
// Each depth keeps its admit mask with the list of the mask's non-zero
// words, and a child ANDs only those words: its mask is zero wherever its
// parent's is. Most nodes are leaves at depth maxPredAttrs, whose parents
// admit few excluded rows, so most ANDs touch a few words of a wide mask.
func (s *growSearch) run(offer func(path []int) bool) int {
	words := (s.excluded + 63) / 64
	masks := make([][]uint64, maxPredAttrs+1)
	live := make([][]int, maxPredAttrs+1)
	for d := range masks {
		masks[d] = make([]uint64, words)
		live[d] = make([]int, 0, words)
	}
	for w := range masks[0] {
		masks[0][w] = ^uint64(0)
		live[0] = append(live[0], w)
	}
	if r := s.excluded % 64; r != 0 {
		masks[0][words-1] = 1<<r - 1
	}
	used := make([]bool, s.arity)
	path := make([]int, 0, maxPredAttrs)
	nodes, stop := 0, false
	var grow func(start, depth int)
	grow = func(start, depth int) {
		if stop {
			return
		}
		nodes++
		if nodes > maxGrowNodes {
			return
		}
		if depth > 0 && len(live[depth]) == 0 {
			stop = offer(path)
			return
		}
		if depth >= maxPredAttrs {
			return
		}
		admit, next := masks[depth], masks[depth+1]
		for u := start; u < len(s.admits); u++ {
			if used[s.cols[u]] {
				continue
			}
			unit := s.admits[u]
			nextLive := live[depth+1][:0]
			narrowed := false
			for _, w := range live[depth] {
				x := admit[w] & unit[w]
				if x != admit[w] {
					narrowed = true
				}
				if x != 0 {
					next[w] = x
					nextLive = append(nextLive, w)
				}
			}
			live[depth+1] = nextLive
			if depth > 0 && !narrowed {
				continue // the unit adds nothing on the excluded rows
			}
			used[s.cols[u]] = true
			path = append(path, u)
			grow(u+1, depth+1)
			path = path[:depth]
			used[s.cols[u]] = false
		}
	}
	grow(0, 0)
	return nodes
}

// accepts reports whether the separating conjunct of units path selects
// exactly R. Its selection is the AND of its units' selections. It selects
// exactly R iff it selects |R| listed rows and no group more often than R
// needs it: the needs sum to |R|, so the two together put every group at
// its need.
func (s *growSearch) accepts(path []int) bool {
	sel := s.sel
	copy(sel, s.sels[path[0]])
	for _, u := range path[1:] {
		for w, x := range s.sels[u] {
			sel[w] &= x
		}
	}
	total := 0
	for _, x := range sel {
		total += bits.OnesCount64(x)
	}
	if total != s.rLen {
		return false
	}
	for w, x := range sel {
		for ; x != 0; x &= x - 1 {
			s.got[s.group[w<<6|bits.TrailingZeros64(x)]]++
		}
	}
	ok := true
	for w, x := range sel {
		for ; x != 0; x &= x - 1 {
			gr := s.group[w<<6|bits.TrailingZeros64(x)]
			if s.got[gr] > s.need[gr] {
				ok = false
			}
			s.got[gr] = 0
		}
	}
	return ok
}

// conjunct returns the terms of units path, in path order.
func (s *growSearch) conjunct(path []int) algebra.Conjunct {
	var c algebra.Conjunct
	for _, u := range path {
		c = append(c, s.terms[u]...)
	}
	return c
}
