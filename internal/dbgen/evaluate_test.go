package dbgen

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
	"qfe/internal/tupleclass"
)

// example51Generator builds the paper's Example 5.1 — T(A,B,C) with
// Q1 = σ(A≤50 ∧ B>60) and Q2 = σ(A>40 ∧ A≤80 ∧ B≤20), both projecting C —
// widened with bag and DISTINCT variants, some projecting a predicate
// attribute, so every Lemma 5.1 case (add, remove, replace and the DISTINCT
// collapses) occurs. R has arity 1.
func example51Generator(t *testing.T) *Generator {
	t.Helper()
	d := db.New()
	rel := relation.New("T", relation.NewSchema(
		"id", relation.KindInt, "A", relation.KindInt, "B", relation.KindInt, "C", relation.KindInt))
	rel.Append(
		relation.NewTuple(1, 48, 3, 25),
		relation.NewTuple(2, 10, 70, 1),
		relation.NewTuple(3, 60, 30, 2),
		relation.NewTuple(4, 90, 90, 3),
		relation.NewTuple(5, 45, 40, 4),
		relation.NewTuple(6, 70, 65, 5),
	)
	d.MustAddTable(rel)
	d.AddPrimaryKey("T", "id")
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	term := func(attr string, op algebra.Op, c int64) algebra.Term {
		return algebra.NewTerm("T."+attr, op, relation.Int(c))
	}
	mk := func(name string, distinct bool, proj []string, pred ...algebra.Conjunct) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"T"}, Projection: proj,
			Pred: pred, Distinct: distinct}
	}
	c, a, ab := []string{"T.C"}, []string{"T.A"}, []string{"T.A", "T.B"}
	qc := []*algebra.Query{
		mk("Q1", false, c, algebra.Conjunct{term("A", algebra.OpLE, 50), term("B", algebra.OpGT, 60)}),
		mk("Q2", false, c, algebra.Conjunct{term("A", algebra.OpGT, 40), term("A", algebra.OpLE, 80),
			term("B", algebra.OpLE, 20)}),
		mk("Q3", false, a, algebra.Conjunct{term("A", algebra.OpGT, 40)}),
		mk("Q4", true, c, algebra.Conjunct{term("A", algebra.OpLE, 50), term("B", algebra.OpGT, 60)}),
		mk("Q5", true, a, algebra.Conjunct{term("B", algebra.OpGT, 20)}),
		mk("Q6", false, ab, algebra.Conjunct{term("B", algebra.OpLE, 60)},
			algebra.Conjunct{term("A", algebra.OpGT, 80)}),
		mk("Q7", true, ab, algebra.Conjunct{term("A", algebra.OpGT, 40), term("B", algebra.OpLE, 60)}),
	}
	r := relation.New("R", relation.NewSchema("C", relation.KindInt)).Append(relation.NewTuple(1))
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refBlock is one block of the reference partition: its queries, in
// ascending order, and its predicted minEdit(R, Rᵢ).
type refBlock struct {
	queries []int
	edit    int
}

// refPartition is the string-keyed reference for evalCtx.evaluate: it
// groups the candidates by their case-code vector over the pairs (one byte
// per pair, straight from Space.CaseOf), keeps blocks in order of their
// first query, and prices each block from that query, as Lemma 5.1 does: an added or removed result tuple costs
// arity(R), a replaced one the changed attributes the query projects.
func refPartition(g *Generator, pairs []tupleclass.Pair) []refBlock {
	byKey := map[string]int{}
	var blocks []refBlock
	key := make([]byte, len(pairs))
	for qi := range g.Queries {
		for i, p := range pairs {
			key[i] = g.Space.CaseOf(p, qi)
		}
		bi, ok := byKey[string(key)]
		if !ok {
			bi = len(blocks)
			byKey[string(key)] = bi
			blocks = append(blocks, refBlock{edit: refEdit(g, pairs, key, qi)})
		}
		blocks[bi].queries = append(blocks[bi].queries, qi)
	}
	return blocks
}

func refEdit(g *Generator, pairs []tupleclass.Pair, cases []byte, qi int) int {
	edit := 0
	for i, p := range pairs {
		switch cases[i] {
		case 1, 2: // add / remove
			edit += g.R.Arity()
		case 3: // replace
			for _, a := range p.ChangedAttrs() {
				if slices.Contains(g.Queries[qi].Projection, g.Space.Attrs[a]) {
					edit++
				}
			}
		}
	}
	return edit
}

// TestEvaluateMatchesReferencePartition scores pair sets of every size from
// 0 to 40 with Algorithm 4's evalCtx.evaluate, which refines query masks by
// the pairs' interned signatures, and checks each against the string-keyed
// reference partition: the same block sizes and result edits, block by
// block in order of each block's lowest query, the same k, and Lemma 5.1's
// bound k ≤ 4^|S|.
func TestEvaluateMatchesReferencePartition(t *testing.T) {
	g := example51Generator(t)
	sp := g.EnumerateScoredPairs(0)
	if len(sp) < 40 {
		t.Fatalf("fixture has %d splitting pairs, want at least 40", len(sp))
	}
	ctx := g.newEvalCtx(sp, 1, 1)
	var scr evalScratch
	check := func(indices []int) []refBlock {
		t.Helper()
		sigs := make([]int32, len(indices))
		for i, pi := range indices {
			sigs[i] = ctx.sigOf[pi]
		}
		_, k := ctx.partition(sigs, &scr)
		ctx.price(sigs, &scr)
		ref := refPartition(g, pairsAt(sp, indices))
		refSizes, refEdits := make([]int, len(ref)), make([]int, len(ref))
		for i, b := range ref {
			refSizes[i], refEdits[i] = len(b.queries), b.edit
		}
		if !slices.Equal(scr.sizes, refSizes) || !slices.Equal(scr.resultEdits, refEdits) {
			t.Fatalf("set %v: block sizes %v edits %v, reference %v %v",
				indices, scr.sizes, scr.resultEdits, refSizes, refEdits)
		}
		if k != len(ref) {
			t.Fatalf("set %v: k = %d, reference %d", indices, k, len(ref))
		}
		bound := 1
		for i := 0; i < len(indices) && bound <= len(g.Queries); i++ {
			bound *= 4
		}
		if k > bound {
			t.Fatalf("set %v: %d blocks exceed 4^%d", indices, k, len(indices))
		}
		return ref
	}

	// Example 5.1: no modification leaves QC in one block.
	if ref := check(nil); len(ref) != 1 || len(ref[0].queries) != len(g.Queries) {
		t.Errorf("empty pair set split QC: %v", ref)
	}
	// Example 5.1: moving the tuple (48, 3) into B > 60 adds a tuple to Q1
	// and removes one from Q2, so they separate, each at arity(R) = 1.
	src := classOfTuple(t, g.Space, relation.NewTuple(1, 48, 3, 25))
	dst := classOfTuple(t, g.Space, relation.NewTuple(1, 48, 70, 25))
	pi := slices.IndexFunc(sp, func(p ScoredPair) bool { return p.Pair.Src.Equal(src) && p.Pair.Dst.Equal(dst) })
	if pi < 0 {
		t.Fatal("Example 5.1's pair is not among the splitting pairs")
	}
	blockOf := map[int]refBlock{}
	for _, b := range check([]int{pi}) {
		for _, qi := range b.queries {
			blockOf[qi] = b
		}
	}
	if q1, q2 := blockOf[0], blockOf[1]; q1.queries[0] == q2.queries[0] || q1.edit != 1 || q2.edit != 1 {
		t.Errorf("Example 5.1 pair: Q1 block %+v, Q2 block %+v; want separate blocks at edit 1", q1, q2)
	}

	rng := rand.New(rand.NewSource(51))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			indices := rng.Perm(len(sp))[:n]
			sort.Ints(indices)
			check(indices)
		}
	}
}

// classOfTuple classifies a tuple over the joined schema by each
// attribute's term signature; dst classes need not occur in the join.
func classOfTuple(t *testing.T, s *tupleclass.Space, tup relation.Tuple) tupleclass.Class {
	t.Helper()
	c := make(tupleclass.Class, len(s.Parts))
	for i, p := range s.Parts {
		c[i] = slices.IndexFunc(p.Subsets, func(sub tupleclass.Subset) bool {
			for ti, term := range p.Terms {
				if term.Matches(tup[p.Col]) != sub.Sig[ti] {
					return false
				}
			}
			return true
		})
		if c[i] < 0 {
			t.Fatalf("value %s of %s is in no subset", tup[p.Col], p.Attr)
		}
	}
	return c
}
