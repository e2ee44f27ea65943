// Package tupleclass implements the paper's tuple-class abstraction (§5.1):
// for each selection-predicate attribute A, the domain of A is partitioned
// into the minimum collection of disjoint subsets P_QC(A) such that every
// selection predicate in QC is constant on each subset; a tuple class is one
// choice of subset per attribute. Tuple classes let the database generator
// reason symbolically about the effect of a modification — every query
// either matches all tuples of a class or none (the paper's key property) —
// and source/destination class pairs (STC, DTC) describe single-tuple
// modifications abstractly.
package tupleclass

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

// Subset is one block of an attribute's domain partition. All values in the
// block satisfy exactly the same set of predicate terms (Sig).
type Subset struct {
	// Rep is the representative value used when a modification moves a
	// tuple into this subset. Reps are drawn from the active domain when
	// possible so modified databases look realistic (the paper follows
	// Olston et al. in preferring realistic data).
	Rep relation.Value
	// Sig[i] is the truth value of the partition's i-th term on this block.
	Sig []bool
	// FromActive records whether Rep occurs in the joined relation.
	FromActive bool
	// Fresh marks a synthesized categorical value that does not occur
	// anywhere in the data (used by the §6.1 set-semantics strategy).
	Fresh bool
}

// Partition is the domain partition P_QC(A) of one attribute.
type Partition struct {
	Attr string // qualified column name in the joined schema
	Col  int    // column index in the joined schema
	Kind relation.Kind
	// Terms are the deduplicated predicate terms over this attribute, in
	// canonical (Key) order.
	Terms   []algebra.Term
	Subsets []Subset
	// codeSub maps each dictionary code of the joined column to the subset
	// holding its value, so a joined row classifies by its codes alone.
	codeSub []int
}

// String renders the partition for debugging: attr and subset reps.
func (p *Partition) String() string {
	parts := make([]string, len(p.Subsets))
	for i, s := range p.Subsets {
		tag := ""
		if s.Fresh {
			tag = "*"
		}
		parts[i] = s.Rep.String() + tag
	}
	return fmt.Sprintf("%s{%s}", p.Attr, strings.Join(parts, " | "))
}

// buildPartition constructs P_QC(A) for one attribute from the deduplicated
// terms over it and the joined column's dictionary, read in sorted order.
// Probe values are the active domain first (so representatives are
// realistic), then synthetic probes covering every elementary region
// induced by the term constants, then for strings one fresh value; each
// signature not seen before opens a subset with that probe as its
// representative.
func buildPartition(attr string, col int, kind relation.Kind,
	terms []algebra.Term, dict []relation.Value, sorted []uint32) *Partition {

	p := &Partition{Attr: attr, Col: col, Kind: kind, Terms: terms,
		codeSub: make([]int, len(dict))}
	bySig := make(map[string]int)
	sig := make([]bool, len(terms))
	key := make([]byte, len(terms))
	classify := func(v relation.Value, fromActive, fresh bool) int {
		for i, t := range terms {
			sig[i] = t.Matches(v)
			key[i] = '0'
			if sig[i] {
				key[i] = '1'
			}
		}
		if sub, ok := bySig[string(key)]; ok {
			return sub
		}
		sub := len(p.Subsets)
		bySig[string(key)] = sub
		p.Subsets = append(p.Subsets, Subset{Rep: v, Sig: append([]bool(nil), sig...),
			FromActive: fromActive, Fresh: fresh})
		return sub
	}
	for _, code := range sorted {
		p.codeSub[code] = classify(dict[code], true, false)
	}
	synth := syntheticProbes(kind, terms)
	for _, v := range synth {
		classify(v, false, false)
	}
	if kind == relation.KindString {
		classify(freshValue(attr, dict, synth), false, true)
	}
	return p
}

// termConstants extracts every constant mentioned by the terms (scalar
// constants and IN-set members).
func termConstants(terms []algebra.Term) []relation.Value {
	var out []relation.Value
	for _, t := range terms {
		if t.Op == algebra.OpIn || t.Op == algebra.OpNotIn {
			out = append(out, t.Set...)
		} else {
			out = append(out, t.Const)
		}
	}
	return out
}

// syntheticProbes generates values covering every region of the attribute
// domain delimited by the term constants. For numeric attributes: the
// constants themselves, midpoints between consecutive constants, and values
// beyond both extremes. For categorical attributes: the constants.
func syntheticProbes(kind relation.Kind, terms []algebra.Term) []relation.Value {
	consts := termConstants(terms)
	if !kind.Numeric() {
		return consts
	}
	// Sorted distinct constant magnitudes.
	fs := make([]float64, 0, len(consts))
	seen := map[float64]bool{}
	for _, c := range consts {
		if !c.Kind.Numeric() {
			continue
		}
		f := c.AsFloat()
		if !seen[f] {
			seen[f] = true
			fs = append(fs, f)
		}
	}
	sort.Float64s(fs)
	var out []relation.Value
	mk := func(f float64) relation.Value {
		if kind == relation.KindInt {
			return relation.Int(int64(f))
		}
		return relation.Float(f)
	}
	if len(fs) == 0 {
		return nil
	}
	if kind == relation.KindInt {
		// Integer probes: around each constant and inside each gap.
		add := func(i int64) { out = append(out, relation.Int(i)) }
		for _, f := range fs {
			fl := int64(math.Floor(f))
			add(fl - 1)
			add(fl)
			add(fl + 1)
			cl := int64(math.Ceil(f))
			if cl != fl {
				add(cl)
				add(cl + 1)
			}
		}
		for i := 0; i+1 < len(fs); i++ {
			// One probe strictly inside each gap, when an integer exists.
			lo, hi := math.Floor(fs[i])+1, math.Ceil(fs[i+1])-1
			if lo <= hi {
				add(int64(lo))
			}
		}
		return out
	}
	// Float probes: the constants, gap midpoints, and beyond the extremes.
	for _, f := range fs {
		out = append(out, mk(f))
	}
	for i := 0; i+1 < len(fs); i++ {
		out = append(out, mk((fs[i]+fs[i+1])/2))
	}
	out = append(out, mk(fs[0]-1), mk(fs[len(fs)-1]+1))
	return out
}

// freshValue synthesizes a string value guaranteed not to collide with any
// probe, representing "a value outside the active domain" (§6.1's insert-
// style distinguishing strategy needs these). Only string probes sharing
// the candidates' prefix can collide, so only those are collected.
func freshValue(attr string, taken ...[]relation.Value) relation.Value {
	base := "novel_" + strings.ReplaceAll(attr, ".", "_")
	used := make(map[string]bool)
	for _, vs := range taken {
		for _, v := range vs {
			if v.Kind == relation.KindString && strings.HasPrefix(v.S, base) {
				used[v.S] = true
			}
		}
	}
	for i := 0; ; i++ {
		if cand := fmt.Sprintf("%s_%d", base, i); !used[cand] {
			return relation.Str(cand)
		}
	}
}
