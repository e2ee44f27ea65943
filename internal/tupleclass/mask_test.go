package tupleclass

import (
	"fmt"
	"math/rand"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

// randomMaskSpace builds a space over T(A, B, C int; S string) with nq
// random queries: DNF predicates of one to three conjuncts over A, B and S,
// empty predicates, DISTINCT and bag queries, and projections that do and
// do not cover the predicate attributes (C is projected only). T.B is
// frozen, as a join key would be.
func randomMaskSpace(t *testing.T, rng *rand.Rand, nq int) *Space {
	t.Helper()
	rel := relation.New("T", relation.NewSchema("T.A", relation.KindInt, "T.B", relation.KindInt,
		"T.C", relation.KindInt, "T.S", relation.KindString))
	strs := []string{"x", "y", "z"}
	for i := 0; i < 12; i++ {
		rel.Append(relation.Tuple{relation.Int(int64(rng.Intn(10))), relation.Int(int64(rng.Intn(10))),
			relation.Int(int64(rng.Intn(10))), relation.Str(strs[rng.Intn(len(strs))])})
	}
	ops := []algebra.Op{algebra.OpEQ, algebra.OpNE, algebra.OpLT, algebra.OpLE, algebra.OpGT, algebra.OpGE}
	// Two constants per attribute keep the class space small enough to
	// enumerate every class and every pair.
	term := func() algebra.Term {
		switch rng.Intn(4) {
		case 3:
			set := []relation.Value{relation.Str(strs[rng.Intn(2)])}
			if rng.Intn(2) == 0 {
				return algebra.NewSetTerm("T.S", algebra.OpIn, set)
			}
			return algebra.NewSetTerm("T.S", algebra.OpNotIn, set)
		default:
			attr := []string{"T.A", "T.B"}[rng.Intn(2)]
			return algebra.NewTerm(attr, ops[rng.Intn(len(ops))], relation.Int(int64(5*rng.Intn(2))))
		}
	}
	cols := []string{"T.A", "T.B", "T.C", "T.S"}
	queries := make([]*algebra.Query, nq)
	for qi := range queries {
		var pred algebra.Predicate
		if rng.Intn(8) > 0 { // one query in eight keeps the empty predicate
			for c := 1 + rng.Intn(3); c > 0; c-- {
				conj := algebra.Conjunct{term()}
				for rng.Intn(2) == 0 {
					conj = append(conj, term())
				}
				pred = append(pred, conj)
			}
		}
		var proj []string
		for _, c := range cols {
			if rng.Intn(3) == 0 {
				proj = append(proj, c)
			}
		}
		if len(proj) == 0 {
			proj = []string{cols[rng.Intn(len(cols))]}
		}
		queries[qi] = &algebra.Query{Name: fmt.Sprintf("Q%d", qi), Tables: []string{"T"},
			Projection: proj, Pred: pred, Distinct: rng.Intn(2) == 0}
	}
	s, err := NewSpace(relation.NewColumnar(rel), queries)
	if err != nil {
		t.Fatal(err)
	}
	s.Freeze([]string{"T.B"})
	return s
}

// allClasses enumerates every class of the space (every subset combination).
func allClasses(s *Space) []Class {
	out := []Class{{}}
	for _, p := range s.Parts {
		var next []Class
		for _, c := range out {
			for sub := range p.Subsets {
				next = append(next, append(c.Clone(), sub))
			}
		}
		out = next
	}
	return out
}

func bit(m []uint64, i int) bool { return m[i/64]>>(i%64)&1 != 0 }

// TestMasksMatchPerQueryReference checks the query masks against the
// per-query reference on random spaces, some past 64 queries (two mask
// words): for every class, MatchMask agrees with Matches bit for bit; for
// every pair of classes, CaseMasks agrees with CaseOf and Cases.Sizes with
// a tally of CaseOf codes.
func TestMasksMatchPerQueryReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial, nq := range []int{1, 5, 13, 40, 64, 65, 97, 130} {
		s := randomMaskSpace(t, rng, nq)
		if want := (nq + 63) / 64; s.Words() != want {
			t.Fatalf("trial %d: Words() = %d, want %d", trial, s.Words(), want)
		}
		classes := allClasses(s)
		if len(classes) == 0 || len(classes) > 400 {
			t.Fatalf("trial %d: %d classes; the fixture must enumerate", trial, len(classes))
		}
		masks := make([][]uint64, len(classes))
		for ci, c := range classes {
			masks[ci] = s.MatchMask(c)
			for qi := 0; qi < 64*s.Words(); qi++ {
				want := qi < nq && s.Matches(c, qi)
				if got := bit(masks[ci], qi); got != want {
					t.Fatalf("trial %d class %v query %d: mask bit %v, Matches %v", trial, c, qi, got, want)
				}
			}
		}
		cs := s.NewCases()
		for si, src := range classes {
			for _, dst := range classes {
				p := NewPair(src, dst)
				s.CaseMasks(p, masks[si], cs)
				var counts [4]int
				for qi := 0; qi < 64*s.Words(); qi++ {
					got, set := uint8(caseNone), 0
					for _, m := range []struct {
						mask []uint64
						code uint8
					}{{cs.Add, caseAdd}, {cs.Remove, caseRemove}, {cs.Replace, caseReplace}} {
						if bit(m.mask, qi) {
							got, set = m.code, set+1
						}
					}
					if set > 1 {
						t.Fatalf("trial %d pair %v->%v query %d: in %d case masks", trial, src, dst, qi, set)
					}
					want := uint8(caseNone)
					if qi < nq {
						want = s.CaseOf(p, qi)
						counts[want]++
					}
					if got != want {
						t.Fatalf("trial %d pair %v->%v query %d: masks say %d, CaseOf %d", trial, src, dst, qi, got, want)
					}
				}
				var sizes []int
				for _, n := range counts {
					if n > 0 {
						sizes = append(sizes, n)
					}
				}
				if got := cs.Sizes(); fmt.Sprint(got) != fmt.Sprint(sizes) {
					t.Fatalf("trial %d pair %v->%v: Sizes %v, CaseOf tally %v", trial, src, dst, got, sizes)
				}
			}
		}
	}
}
