package tupleclass

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

// example51Space builds the paper's Example 5.1: T(A,B,C) numeric, QC =
// {Q1 = σ(A≤50 ∧ B>60), Q2 = σ(A>40 ∧ A≤80 ∧ B≤20)}.
// PartitionSizes1 returns the block sizes of the symbolic partition of the
// candidate queries by the single pair p — two queries share a block
// exactly when p affects them the same way (Lemma 5.1) — in ascending case
// order. It is the shape Algorithm 3 scores once per enumerated (STC, DTC)
// pair; the enumeration itself calls CaseMasks with each source class's
// match mask computed once, and Cases.Sizes.
func (s *Space) PartitionSizes1(p Pair) []int {
	c := s.NewCases()
	s.CaseMasks(p, s.MatchMask(p.Src), c)
	return c.Sizes()
}

func example51Space(t *testing.T) *Space {
	t.Helper()
	rel := relation.New("T", relation.NewSchema(
		"T.A", relation.KindInt, "T.B", relation.KindInt, "T.C", relation.KindInt))
	rel.Append(
		relation.NewTuple(48, 3, 25),
		relation.NewTuple(10, 70, 1),
		relation.NewTuple(60, 30, 2),
		relation.NewTuple(90, 90, 3),
	)
	q1 := &algebra.Query{Name: "Q1", Tables: []string{"T"}, Projection: []string{"T.C"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("T.A", algebra.OpLE, relation.Int(50)),
			algebra.NewTerm("T.B", algebra.OpGT, relation.Int(60)),
		}}}
	q2 := &algebra.Query{Name: "Q2", Tables: []string{"T"}, Projection: []string{"T.C"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("T.A", algebra.OpGT, relation.Int(40)),
			algebra.NewTerm("T.A", algebra.OpLE, relation.Int(80)),
			algebra.NewTerm("T.B", algebra.OpLE, relation.Int(20)),
		}}}
	s, err := NewSpace(relation.NewColumnar(rel), []*algebra.Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExample51DomainPartitions(t *testing.T) {
	s := example51Space(t)
	if len(s.Attrs) != 2 || s.Attrs[0] != "T.A" || s.Attrs[1] != "T.B" {
		t.Fatalf("Attrs = %v (C has no predicates and must be absent)", s.Attrs)
	}
	// Paper: P_QC(A) = {[-∞,40], (40,50], (50,80], (80,∞]} — 4 subsets.
	if got := len(s.Parts[0].Subsets); got != 4 {
		t.Errorf("|P_QC(A)| = %d, want 4: %v", got, s.Parts[0])
	}
	// Paper: P_QC(B) = {[-∞,20], (20,60], (60,∞]} — 3 subsets.
	if got := len(s.Parts[1].Subsets); got != 3 {
		t.Errorf("|P_QC(B)| = %d, want 3: %v", got, s.Parts[1])
	}
	if s.NumPredicateAttrs() != 2 {
		t.Errorf("n=%d, want 2", s.NumPredicateAttrs())
	}
}

func TestExample51SubsetMembership(t *testing.T) {
	s := example51Space(t)
	a := s.Parts[0]
	// Values in the same paper subset must map to the same partition block.
	same := [][]int64{{-5, 0, 40}, {41, 48, 50}, {51, 60, 80}, {81, 90, 1000}}
	for _, group := range same {
		first := a.SubsetOf(relation.Int(group[0]))
		if first < 0 {
			t.Fatalf("value %d unclassified", group[0])
		}
		for _, v := range group[1:] {
			if got := a.SubsetOf(relation.Int(v)); got != first {
				t.Errorf("A=%d in subset %d, want %d (same block as %d)", v, got, first, group[0])
			}
		}
	}
	// Values in different paper subsets must map to different blocks.
	reps := []int64{40, 48, 60, 90}
	seen := map[int]int64{}
	for _, v := range reps {
		b := a.SubsetOf(relation.Int(v))
		if prev, dup := seen[b]; dup {
			t.Errorf("A=%d and A=%d should be in different subsets", prev, v)
		}
		seen[b] = v
	}
}

func TestExample53ClassMembership(t *testing.T) {
	s := example51Space(t)
	// Paper Example 5.3: tuple (48, 3, 25) belongs to class ((40,50],
	// [-∞,20]); i.e. it shares a class with any tuple whose A∈(40,50] and
	// B≤20.
	c1, err := s.ClassOf(relation.NewTuple(48, 3, 25))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.ClassOf(relation.NewTuple(45, 20, 99))
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2) {
		t.Errorf("(48,3) and (45,20) should share a tuple class: %v vs %v", c1, c2)
	}
	c3, _ := s.ClassOf(relation.NewTuple(48, 30, 99))
	if c1.Equal(c3) {
		t.Error("(48,3) and (48,30) differ on P(B) and must be in different classes")
	}
}

func TestClassMatchesAgreesWithPredicate(t *testing.T) {
	// The defining tuple-class property: class matches Q iff every member
	// tuple satisfies Q. Cross-check Matches against direct evaluation on
	// random tuples.
	s := example51Space(t)
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		tup := relation.NewTuple(rnd.Intn(200)-50, rnd.Intn(200)-50, rnd.Intn(10))
		c, err := s.ClassOf(tup)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range s.Queries {
			direct := q.Pred.Compile(s.Joined.Schema())(tup)
			if got := s.Matches(c, qi); got != direct {
				t.Fatalf("tuple %v class %v: Matches(%s)=%v, predicate says %v",
					tup, c, q.Name, got, direct)
			}
		}
	}
}

func TestSourceClasses(t *testing.T) {
	s := example51Space(t)
	scs := s.SourceClasses()
	// The 4 data tuples have distinct (A,B) region combinations:
	// (48,3): A(40,50], B≤20 ; (10,70): A≤40, B>60 ; (60,30): A(50,80],
	// B(20,60] ; (90,90): A>80, B>60 — 4 distinct classes.
	if len(scs) != 4 {
		t.Fatalf("source classes = %d, want 4", len(scs))
	}
	total := 0
	for _, sc := range scs {
		total += len(sc.Rows)
	}
	if total != s.Joined.NumRows() {
		t.Errorf("source classes cover %d tuples, want %d", total, s.Joined.NumRows())
	}
}

func TestEnumerateClassesAt(t *testing.T) {
	s := example51Space(t)
	src, _ := s.ClassOf(relation.NewTuple(48, 3, 25))
	count1 := 0
	s.EnumerateClassesAt(src, 1, func(c Class) bool {
		if c.Distance(src) != 1 {
			t.Errorf("distance-1 enumeration produced distance %d", c.Distance(src))
		}
		count1++
		return true
	})
	// (kA-1) + (kB-1) = 3 + 2 = 5.
	if count1 != 5 {
		t.Errorf("distance-1 classes = %d, want 5", count1)
	}
	count2 := 0
	s.EnumerateClassesAt(src, 2, func(c Class) bool {
		if c.Distance(src) != 2 {
			t.Errorf("distance-2 enumeration produced distance %d", c.Distance(src))
		}
		count2++
		return true
	})
	// 3 * 2 = 6 combinations.
	if count2 != 6 {
		t.Errorf("distance-2 classes = %d, want 6", count2)
	}
	// Early termination.
	n := 0
	s.EnumerateClassesAt(src, 1, func(Class) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("yield=false should stop enumeration, got %d", n)
	}
	// Degenerate distances.
	s.EnumerateClassesAt(src, 0, func(Class) bool { t.Error("dist 0 must be empty"); return true })
	s.EnumerateClassesAt(src, 99, func(Class) bool { t.Error("dist>n must be empty"); return true })
}

// TestCountClassesAtMatchesEnumeration checks CountClassesAt against
// EnumerateClassesAt from every source class of random spaces with a frozen
// attribute, at every distance, and its saturation at small limits.
func TestCountClassesAtMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		s := randomMaskSpace(t, rng, 1+rng.Intn(8))
		srcs := s.SourceClasses()
		for dist := 0; dist <= len(s.Parts)+1; dist++ {
			want := -1
			for _, sc := range srcs {
				n := 0
				s.EnumerateClassesAt(sc.Class, dist, func(Class) bool { n++; return true })
				if want >= 0 && n != want {
					t.Fatalf("trial %d dist %d: source classes enumerate %d and %d classes", trial, dist, want, n)
				}
				want = n
			}
			if got := s.CountClassesAt(dist, math.MaxInt); got != want {
				t.Fatalf("trial %d dist %d: CountClassesAt = %d, enumeration %d", trial, dist, got, want)
			}
			for limit := 1; limit <= want+1; limit++ {
				if got := s.CountClassesAt(dist, limit); got != min(want, limit) {
					t.Fatalf("trial %d dist %d limit %d: CountClassesAt = %d, want %d",
						trial, dist, limit, got, min(want, limit))
				}
			}
		}
	}
}

func TestCategoricalPartitionExample52(t *testing.T) {
	// Paper Example 5.2: domain {a..g}, Q1 = σ(A ∈ {b,c,e}), Q2 =
	// σ(A ∈ {a,b,d,e}) — P_QC(A) = {{a,d},{b,e},{c},{f,g}} plus possibly a
	// fresh synthetic value whose signature matches {f,g} (satisfies
	// neither) and therefore folds into it: exactly 4 subsets.
	rel := relation.New("T", relation.NewSchema("T.A", relation.KindString))
	for _, v := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		rel.Append(relation.NewTuple(v))
	}
	mkIn := func(vals ...string) algebra.Term {
		set := make([]relation.Value, len(vals))
		for i, v := range vals {
			set[i] = relation.Str(v)
		}
		return algebra.NewSetTerm("T.A", algebra.OpIn, set)
	}
	q1 := &algebra.Query{Name: "Q1", Tables: []string{"T"}, Projection: []string{"T.A"},
		Pred: algebra.Predicate{algebra.Conjunct{mkIn("b", "c", "e")}}}
	q2 := &algebra.Query{Name: "Q2", Tables: []string{"T"}, Projection: []string{"T.A"},
		Pred: algebra.Predicate{algebra.Conjunct{mkIn("a", "b", "d", "e")}}}
	s, err := NewSpace(relation.NewColumnar(rel), []*algebra.Query{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Parts[0]
	if len(p.Subsets) != 4 {
		t.Fatalf("|P_QC(A)| = %d, want 4: %v", len(p.Subsets), p)
	}
	pairsSame := [][2]string{{"a", "d"}, {"b", "e"}, {"f", "g"}}
	for _, pr := range pairsSame {
		if p.SubsetOf(relation.Str(pr[0])) != p.SubsetOf(relation.Str(pr[1])) {
			t.Errorf("%q and %q should share a subset", pr[0], pr[1])
		}
	}
	if p.SubsetOf(relation.Str("c")) == p.SubsetOf(relation.Str("b")) {
		t.Error("c satisfies only Q1 and must be alone")
	}
	// A completely unknown value folds into the neither-query subset.
	if p.SubsetOf(relation.Str("zzz")) != p.SubsetOf(relation.Str("f")) {
		t.Error("unknown value should land in the 'satisfies nothing' subset")
	}
}

func TestFreshSubsetSynthesised(t *testing.T) {
	// With an equality predicate covering the whole active domain, the
	// "no value" subset requires a synthesized fresh value.
	rel := relation.New("T", relation.NewSchema("T.A", relation.KindString))
	rel.Append(relation.NewTuple("x"))
	q := &algebra.Query{Name: "Q", Tables: []string{"T"}, Projection: []string{"T.A"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("T.A", algebra.OpEQ, relation.Str("x"))}}}
	s, err := NewSpace(relation.NewColumnar(rel), []*algebra.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Parts[0]
	if len(p.Subsets) != 2 {
		t.Fatalf("want 2 subsets (={x}, other), got %v", p)
	}
	foundFresh := false
	for _, sub := range p.Subsets {
		if sub.Fresh {
			foundFresh = true
			if sub.Rep.S == "x" {
				t.Error("fresh rep must differ from active values")
			}
		}
	}
	if !foundFresh {
		t.Error("expected a synthesized fresh subset")
	}
}

func TestPairCasesLemma51(t *testing.T) {
	s := example51Space(t)
	// src: A∈(40,50], B≤20 — matches Q2 only.
	src, _ := s.ClassOf(relation.NewTuple(48, 3, 0))
	// dst: A∈(40,50], B>60 — matches Q1 only.
	dst, _ := s.ClassOf(relation.NewTuple(48, 70, 0))
	p := NewPair(src, dst)
	if p.EditCost != 1 {
		t.Errorf("edit cost = %d, want 1 (only B changes)", p.EditCost)
	}
	if got := s.CaseOf(p, 0); got != caseAdd {
		t.Errorf("Q1 case = %d, want add", got)
	}
	if got := s.CaseOf(p, 1); got != caseRemove {
		t.Errorf("Q2 case = %d, want remove", got)
	}
	// Projection is T.C which never changes, so a both-match pair is
	// invisible (x = x' collapse). Build Q3 = A>40 matched by src and dst.
	q3 := &algebra.Query{Name: "Q3", Tables: []string{"T"}, Projection: []string{"T.C"},
		Pred: algebra.Predicate{algebra.Conjunct{
			algebra.NewTerm("T.A", algebra.OpGT, relation.Int(40))}}}
	s2, err := NewSpace(s.Joined, append(append([]*algebra.Query{}, s.Queries...), q3))
	if err != nil {
		t.Fatal(err)
	}
	src2, _ := s2.ClassOf(relation.NewTuple(48, 3, 0))
	dst2, _ := s2.ClassOf(relation.NewTuple(48, 70, 0))
	p2 := NewPair(src2, dst2)
	if got := s2.CaseOf(p2, 2); got != caseNone {
		t.Errorf("both-match with unchanged projection must be caseNone, got %d", got)
	}
}

// casePartition groups the candidates by their Lemma 5.1 case vector over
// pairs (one CaseOf code per pair): two queries share a block exactly when
// every pair affects them the same way. Blocks come out in ascending key
// order, so for one pair they follow PartitionSizes1's case order.
func casePartition(s *Space, pairs []Pair) [][]int {
	byKey := map[string][]int{}
	key := make([]byte, len(pairs))
	for qi := range s.Queries {
		for i, p := range pairs {
			key[i] = s.CaseOf(p, qi)
		}
		byKey[string(key)] = append(byKey[string(key)], qi)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	blocks := make([][]int, len(keys))
	for i, k := range keys {
		blocks[i] = byKey[k]
	}
	return blocks
}

// withQueries rebuilds s's space over the same joined relation with extra
// candidate queries on T appended to Example 5.1's Q1 and Q2.
func withQueries(t *testing.T, s *Space, extra ...*algebra.Query) *Space {
	t.Helper()
	s2, err := NewSpace(s.Joined, append(append([]*algebra.Query{}, s.Queries...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func TestPartitionOfGroupsQueries(t *testing.T) {
	s := example51Space(t)
	src, _ := s.ClassOf(relation.NewTuple(48, 3, 0))
	dst, _ := s.ClassOf(relation.NewTuple(48, 70, 0))
	p := NewPair(src, dst)
	// Q1 gains a tuple, Q2 loses one: they must separate, add before remove.
	if groups := casePartition(s, []Pair{p}); len(groups) != 2 || groups[0][0] != 0 || groups[1][0] != 1 {
		t.Fatalf("groups = %v, want [[0] [1]]", groups)
	}
	if sizes := s.PartitionSizes1(p); !slices.Equal(sizes, []int{1, 1}) {
		t.Errorf("sizes = %v, want [1 1]", sizes)
	}
	// No modification — the tuple stays in its class: single group.
	if sizes := s.PartitionSizes1(NewPair(src, src)); !slices.Equal(sizes, []int{2}) {
		t.Errorf("identity pair should not split: %v", sizes)
	}
}

func TestPartitionAtMost4PowNQuick(t *testing.T) {
	// Lemma 5.1: n modified tuples partition QC into at most 4^n subsets.
	// QC is widened past 4 queries with bag and DISTINCT variants, some
	// projecting predicate attributes, so the bound can bind at n = 1.
	mk := func(name string, distinct bool, proj []string, pred ...algebra.Conjunct) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"T"}, Projection: proj,
			Pred: pred, Distinct: distinct}
	}
	term := func(attr string, op algebra.Op, c int64) algebra.Term {
		return algebra.NewTerm(attr, op, relation.Int(c))
	}
	a, c, ab := []string{"T.A"}, []string{"T.C"}, []string{"T.A", "T.B"}
	s := withQueries(t, example51Space(t),
		mk("Q3", false, a, algebra.Conjunct{term("T.A", algebra.OpGT, 40)}),
		mk("Q4", true, c, algebra.Conjunct{term("T.A", algebra.OpLE, 50), term("T.B", algebra.OpGT, 60)}),
		mk("Q5", true, a, algebra.Conjunct{term("T.B", algebra.OpGT, 20)}),
		mk("Q6", false, ab, algebra.Conjunct{term("T.B", algebra.OpLE, 60)},
			algebra.Conjunct{term("T.A", algebra.OpGT, 80)}),
		mk("Q7", true, ab, algebra.Conjunct{term("T.A", algebra.OpGT, 40), term("T.B", algebra.OpLE, 60)}),
	)
	scs := s.SourceClasses()
	var allPairs []Pair
	for _, sc := range scs {
		for dist := 1; dist <= 2; dist++ {
			s.EnumerateClassesAt(sc.Class, dist, func(d Class) bool {
				allPairs = append(allPairs, NewPair(sc.Class, d.Clone()))
				return true
			})
		}
	}
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rnd.Intn(3)
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = allPairs[rnd.Intn(len(allPairs))]
		}
		groups := casePartition(s, pairs)
		bound := 1
		for i := 0; i < n; i++ {
			bound *= 4
		}
		if len(groups) > bound {
			t.Fatalf("partition into %d subsets exceeds 4^%d", len(groups), n)
		}
		sizes := make([]int, len(groups))
		total := 0
		for i, g := range groups {
			sizes[i] = len(g)
			total += len(g)
		}
		if total != len(s.Queries) {
			t.Fatalf("partition loses queries: %v", groups)
		}
		if n == 1 {
			if got := s.PartitionSizes1(pairs[0]); !slices.Equal(got, sizes) {
				t.Fatalf("PartitionSizes1 = %v, case-vector partition %v", got, sizes)
			}
		}
	}
}

func TestSymbolicResultEdits(t *testing.T) {
	// Q3 and Q4 match every tuple with A > 40, so moving one of their
	// tuples within A > 40 replaces a result tuple in place when a changed
	// attribute is projected: Q3 projects A and B, Q4 only A.
	aGT40 := algebra.Predicate{algebra.Conjunct{algebra.NewTerm("T.A", algebra.OpGT, relation.Int(40))}}
	s := withQueries(t, example51Space(t),
		&algebra.Query{Name: "Q3", Tables: []string{"T"}, Projection: []string{"T.A", "T.B"}, Pred: aGT40},
		&algebra.Query{Name: "Q4", Tables: []string{"T"}, Projection: []string{"T.A"}, Pred: aGT40})
	// Predicted minEdit(R, Rᵢ) of one query under one pair: an added or
	// removed result tuple costs arity(R), a replaced one the changed
	// attributes the query projects.
	const arityR = 1
	edit := func(p Pair, qi int) int {
		switch s.CaseOf(p, qi) {
		case caseAdd, caseRemove:
			return arityR
		case caseReplace:
			return s.ReplaceCost(p, qi)
		}
		return 0
	}
	for _, tc := range []struct {
		name     string
		src, dst relation.Tuple
		want     []int // Q1, Q2, Q3, Q4
	}{
		// Example 5.1: Q1 (add) and Q2 (remove) each cost arity(R) = 1;
		// Q3 sees B, the one changed attribute, replaced; Q4 does not
		// project B, so its result is unchanged.
		{"B changes", relation.NewTuple(48, 3, 0), relation.NewTuple(48, 70, 0), []int{1, 1, 1, 0}},
		// A and B both change: Q1 is untouched, Q2 loses the tuple, Q3
		// sees both projected attributes replaced and Q4 only A.
		{"A and B change", relation.NewTuple(48, 3, 0), relation.NewTuple(60, 30, 0), []int{0, 1, 2, 1}},
	} {
		src, err := s.ClassOf(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := s.ClassOf(tc.dst)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPair(src, dst)
		for qi, want := range tc.want {
			if got := edit(p, qi); got != want {
				t.Errorf("%s: %s edit = %d, want %d", tc.name, s.Queries[qi].Name, got, want)
			}
		}
	}
}

func TestIndistinguishableGroups(t *testing.T) {
	rel := relation.New("T", relation.NewSchema("T.A", relation.KindInt))
	rel.Append(relation.NewTuple(1), relation.NewTuple(5))
	mk := func(name string, op algebra.Op, c int64) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"T"}, Projection: []string{"T.A"},
			Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("T.A", op, relation.Int(c))}}}
	}
	// A>3 and A>=4 differ on no probed subset boundary... actually they do:
	// the partition has cut points at 3 and 4; values in (3,4) distinguish
	// them, but only if an integer exists there — it does not. A>3 ≡ A>=4
	// over the integers.
	qa := mk("Qa", algebra.OpGT, 3)
	qb := mk("Qb", algebra.OpGE, 4)
	qc := mk("Qc", algebra.OpGT, 4)
	s, err := NewSpace(relation.NewColumnar(rel), []*algebra.Query{qa, qb, qc})
	if err != nil {
		t.Fatal(err)
	}
	groups := s.IndistinguishableGroups(10000)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want {Qa,Qb} and {Qc}", groups)
	}
	for _, g := range groups {
		if len(g) == 2 {
			if !(g[0] == 0 && g[1] == 1) {
				t.Errorf("merged group = %v, want Qa,Qb", g)
			}
		}
	}

	// A query that matches two groups joins the lowest one. G1 and G2 are
	// both A>3 over the integers, but their joint space (A, B, C) has 2·2·2
	// classes; under a cap of 4 that comparison is cut and they stay apart,
	// while Q (A>3) shares only A with each and matches both.
	rel3 := relation.New("T", relation.NewSchema(
		"T.A", relation.KindInt, "T.B", relation.KindInt, "T.C", relation.KindInt))
	rel3.Append(relation.NewTuple(1, -1, 2), relation.NewTuple(5, 3, -4))
	term := func(attr string, op algebra.Op, c int64) algebra.Term {
		return algebra.NewTerm(attr, op, relation.Int(c))
	}
	mkDNF := func(name string, conjs ...algebra.Conjunct) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"T"}, Projection: []string{"T.A"},
			Pred: algebra.Predicate(conjs)}
	}
	g1 := mkDNF("G1",
		algebra.Conjunct{term("T.A", algebra.OpGT, 3), term("T.B", algebra.OpGE, 0)},
		algebra.Conjunct{term("T.A", algebra.OpGT, 3), term("T.B", algebra.OpLT, 0)})
	g2 := mkDNF("G2",
		algebra.Conjunct{term("T.A", algebra.OpGE, 4), term("T.C", algebra.OpGE, 0)},
		algebra.Conjunct{term("T.A", algebra.OpGE, 4), term("T.C", algebra.OpLT, 0)})
	q := mkDNF("Q", algebra.Conjunct{term("T.A", algebra.OpGT, 3)})
	s3, err := NewSpace(relation.NewColumnar(rel3), []*algebra.Query{g1, g2, q})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxCombos int
		want      [][]int
	}{
		{4, [][]int{{0, 2}, {1}}},
		{8, [][]int{{0, 1, 2}}},
	} {
		if got := s3.IndistinguishableGroups(tc.maxCombos); !slices.EqualFunc(got, tc.want, slices.Equal[[]int]) {
			t.Errorf("maxCombos %d: groups = %v, want %v", tc.maxCombos, got, tc.want)
		}
	}
}

// TestMatchVector checks a class's per-query match bits.
func TestMatchVector(t *testing.T) {
	s := example51Space(t)
	c, _ := s.ClassOf(relation.NewTuple(48, 3, 0))
	if v := []bool{s.Matches(c, 0), s.Matches(c, 1)}; v[0] || !v[1] {
		t.Errorf("match vector = %v, want [false true]", v)
	}
}

func TestClassKeyAndClone(t *testing.T) {
	c := Class{1, 2, 3}
	if c.Key() != "1,2,3" {
		t.Errorf("Key = %q", c.Key())
	}
	d := c.Clone()
	d[0] = 9
	if c[0] != 1 {
		t.Error("Clone must copy")
	}
	if c.Equal(d) || !c.Equal(Class{1, 2, 3}) {
		t.Error("Equal broken")
	}
	if c.Equal(Class{1, 2}) {
		t.Error("length mismatch should not be equal")
	}
	if c.Distance(Class{1, 9, 3}) != 1 {
		t.Error("Distance broken")
	}
}
