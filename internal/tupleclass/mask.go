package tupleclass

import "math/bits"

// Query masks. Algorithms 3 and 4 ask, for many (STC, DTC) pairs, how one
// modified tuple affects every candidate query at once. The space answers
// with query bitmasks: bit qi%64 of word qi/64 stands for Queries[qi], and a
// mask is Words() words long. NewSpace precomputes the tables the masks are
// built from, so a class's match set is a few word ANDs and a pair's Lemma
// 5.1 cases are word operations on its source and destination masks.
//
// A query's predicate is a disjunction of conjuncts. Each conjunct gets one
// bit of a conjunct mask: a query's first conjunct (or, for an empty
// predicate, a vacuous one with no terms) takes bit qi, so conjunct and query
// masks coincide on their first Words() words; further conjuncts take bits
// after them and are folded onto their query's bit. conjSat[a] holds, for
// each subset of Parts[a], the conjuncts whose terms over attribute a all
// hold on that subset (a conjunct without terms over a holds everywhere), so
// a class satisfies the AND of its subsets' conjunct masks.

// buildMasks fills the mask tables from the compiled programs.
func (s *Space) buildMasks() {
	nq := len(s.Queries)
	s.words = (nq + 63) / 64
	extra := 0
	for _, prog := range s.programs {
		if len(prog) > 1 {
			extra += len(prog) - 1
		}
	}
	s.conjWords = s.words + (extra+63)/64
	s.extraOwner = make([]int, 0, extra)
	s.allConj = make([]uint64, s.conjWords)
	// bitOf[qi][ci] is conjunct ci of query qi's bit in the conjunct mask.
	bitOf := make([][]int, nq)
	for qi, prog := range s.programs {
		bitOf[qi] = make([]int, max(len(prog), 1))
		bitOf[qi][0] = qi
		for ci := 1; ci < len(prog); ci++ {
			bitOf[qi][ci] = 64*s.words + len(s.extraOwner)
			s.extraOwner = append(s.extraOwner, qi)
		}
		for _, b := range bitOf[qi] {
			setBit(s.allConj, b)
		}
	}
	s.conjSat = make([][]uint64, len(s.Parts))
	for a, p := range s.Parts {
		sat := make([]uint64, len(p.Subsets)*s.conjWords)
		for sub := range p.Subsets {
			copy(sat[sub*s.conjWords:], s.allConj)
		}
		s.conjSat[a] = sat
	}
	for qi, prog := range s.programs {
		for ci, conj := range prog {
			for _, ref := range conj {
				for sub, subset := range s.Parts[ref.part].Subsets {
					if !subset.Sig[ref.term] {
						clearBit(s.conjSat[ref.part][sub*s.conjWords:], bitOf[qi][ci])
					}
				}
			}
		}
	}
	s.projMask = make([][]uint64, len(s.Attrs))
	for a := range s.Attrs {
		s.projMask[a] = make([]uint64, s.words)
		for qi := range s.Queries {
			if s.projected[qi][a] {
				setBit(s.projMask[a], qi)
			}
		}
	}
	s.distinctMask = make([]uint64, s.words)
	for qi, q := range s.Queries {
		if q.Distinct {
			setBit(s.distinctMask, qi)
		}
	}
}

func setBit(m []uint64, i int)   { m[i/64] |= 1 << (i % 64) }
func clearBit(m []uint64, i int) { m[i/64] &^= 1 << (i % 64) }

// Words returns the length in uint64 words of the space's query masks.
func (s *Space) Words() int { return s.words }

// MatchMask returns the mask of the queries class c matches: bit qi is
// Matches(c, qi).
func (s *Space) MatchMask(c Class) []uint64 {
	m := make([]uint64, s.words)
	s.matchInto(m, make([]uint64, s.conjWords), c)
	return m
}

// matchInto writes class c's match mask into dst (Words() words), using conj
// (conjWords words) as scratch when some query has several conjuncts.
func (s *Space) matchInto(dst, conj []uint64, c Class) {
	if len(s.extraOwner) == 0 {
		conj = dst
	}
	copy(conj, s.allConj)
	for a, sub := range c {
		sat := s.conjSat[a][sub*s.conjWords : (sub+1)*s.conjWords]
		for w := range conj {
			conj[w] &= sat[w]
		}
	}
	if len(s.extraOwner) == 0 {
		return
	}
	copy(dst, conj[:s.words])
	for w, word := range conj[s.words:] {
		for word != 0 {
			e := 64*w + bits.TrailingZeros64(word)
			word &= word - 1
			setBit(dst, s.extraOwner[e])
		}
	}
}

// Cases is one pair's Lemma 5.1 effect on every candidate query, as three
// disjoint query masks: the queries whose result gains a tuple (Add), loses
// one (Remove), or has one replaced in place (Replace). Every other query's
// result is unchanged. Bit qi of each mask agrees with CaseOf(p, qi). A
// Cases value also carries the scratch CaseMasks needs, so one per worker
// serves any number of pairs without allocating.
type Cases struct {
	Add, Remove, Replace []uint64
	nq                   int
	dst, conj, changed   []uint64
	sizes                [4]int
}

// NewCases returns an empty Cases sized for the space.
func (s *Space) NewCases() *Cases {
	w := s.words
	buf := make([]uint64, 5*w+s.conjWords)
	return &Cases{
		Add: buf[:w:w], Remove: buf[w : 2*w : 2*w], Replace: buf[2*w : 3*w : 3*w],
		nq: len(s.Queries), dst: buf[3*w : 4*w : 4*w], changed: buf[4*w : 5*w : 5*w],
		conj: buf[5*w:],
	}
}

// CaseMasks fills c with pair p's Lemma 5.1 cases, given srcMatch =
// MatchMask(p.Src); callers enumerating many pairs from one source class
// compute that mask once. The rules are CaseOf's, a word at a time: a query
// matched by the destination only gains a tuple; one matched by the source
// only loses it, unless it is DISTINCT (set semantics may mask removals); one
// matched by both sees a replacement when a changed attribute is projected,
// an addition instead when it is DISTINCT.
func (s *Space) CaseMasks(p Pair, srcMatch []uint64, c *Cases) {
	s.matchInto(c.dst, c.conj, p.Dst)
	clear(c.changed)
	for a := range p.Src {
		if p.Src[a] != p.Dst[a] {
			for w, m := range s.projMask[a] {
				c.changed[w] |= m
			}
		}
	}
	for w := range c.Add {
		src, dst, distinct := srcMatch[w], c.dst[w], s.distinctMask[w]
		both := src & dst & c.changed[w]
		c.Add[w] = dst&^src | both&distinct
		c.Remove[w] = src &^ dst &^ distinct
		c.Replace[w] = both &^ distinct
	}
}

// Sizes returns the block sizes of the single-pair partition the cases
// describe — two queries share a block exactly when the pair affects them
// the same way — in ascending case order (unchanged, add, remove, replace),
// empty blocks omitted. The slice is c's own buffer, overwritten by the
// next call, so a caller that keeps the sizes copies them.
func (c *Cases) Sizes() []int {
	add, remove, replace := popcount(c.Add), popcount(c.Remove), popcount(c.Replace)
	sizes := c.sizes[:0]
	for _, n := range [4]int{c.nq - add - remove - replace, add, remove, replace} {
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

func popcount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}
