package dbgen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/cost"
	"qfe/internal/db"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// refPickSubsets is Algorithm 4 as a plain levelwise sweep, the reference
// for PickSubsets: children deduplicated through a table of seen sets,
// every listed set scored through refPartition, every kept child collected
// and then stable-sorted by balance to cut the frontier, and every ranked
// set collected and then stable-sorted to keep the top k.
func refPickSubsets(g *Generator, sp []ScoredPair, x int) []CandidateSet {
	maxEval := g.Opts.MaxSetsEvaluated
	if maxEval <= 0 {
		maxEval = 50000
	}
	score := func(indices []int) CandidateSet {
		pairs := pairsAt(sp, indices)
		blocks := refPartition(g, pairs)
		sizes, edits := make([]int, len(blocks)), make([]int, len(blocks))
		for i, b := range blocks {
			sizes[i], edits[i] = len(b.queries), b.edit
		}
		tables := map[string]bool{}
		dbEdit := 0
		for _, p := range pairs {
			dbEdit += p.EditCost
			for _, a := range p.ChangedAttrs() {
				tables[g.Joined.Cols[g.Space.Parts[a].Col].Table] = true
			}
		}
		in := cost.Inputs{DBEdit: dbEdit, ModifiedRelations: len(tables), ModifiedTuples: len(pairs),
			ResultEdits: edits, SubsetSizes: sizes, X: x}
		return CandidateSet{Indices: indices, Cost: g.Opts.Cost.Cost(in), Balance: cost.Balance(sizes), Subsets: len(sizes)}
	}
	feasible := func(indices []int) bool {
		need := map[string]int{}
		for _, i := range indices {
			need[sp[i].Pair.Src.Key()]++
		}
		for k, n := range need {
			if n > len(g.srcRows[k]) {
				return false
			}
		}
		return true
	}
	type entry struct {
		indices []int
		balance float64
	}
	var ranked []CandidateSet
	var frontier []entry
	evaluated := 0
	for i := range sp {
		if single := []int{i}; feasible(single) {
			c := score(single)
			evaluated++
			ranked = append(ranked, c)
			frontier = append(frontier, entry{single, c.Balance})
		}
	}
	for level := 2; level <= len(sp) && len(frontier) > 0 && evaluated < maxEval; level++ {
		seen := map[string]bool{}
		budget, listed := maxEval-evaluated, 0
		var next []entry
	sweep:
		for _, op := range frontier {
			for pi := range sp {
				if slices.Contains(op.indices, pi) {
					continue
				}
				child := append(slices.Clone(op.indices), pi)
				slices.Sort(child)
				if key := fmt.Sprint(child); seen[key] {
					continue
				} else {
					seen[key] = true
				}
				if !feasible(child) {
					continue
				}
				c := score(child)
				evaluated++
				listed++
				if c.Balance < op.balance {
					ranked = append(ranked, c)
					next = append(next, entry{child, c.Balance})
				}
				if listed >= budget {
					break sweep
				}
			}
		}
		if g.Opts.MaxFrontier > 0 && len(next) > g.Opts.MaxFrontier {
			slices.SortStableFunc(next, func(a, b entry) int { return cmp.Compare(a.balance, b.balance) })
			next = next[:g.Opts.MaxFrontier]
		}
		frontier = next
	}
	ranked = slices.DeleteFunc(ranked, func(c CandidateSet) bool { return math.IsInf(c.Cost, 1) })
	slices.SortStableFunc(ranked, func(a, b CandidateSet) int {
		if g.Opts.Strategy == StrategyMaxPartitions && a.Subsets != b.Subsets {
			return b.Subsets - a.Subsets
		}
		if a.Cost != b.Cost {
			return cmp.Compare(a.Cost, b.Cost)
		}
		if a.Balance != b.Balance {
			return cmp.Compare(a.Balance, b.Balance)
		}
		return len(a.Indices) - len(b.Indices)
	})
	if len(ranked) > maxCandidateSets {
		ranked = ranked[:maxCandidateSets]
	}
	for i := range ranked {
		ranked[i].Pairs = pairsAt(sp, ranked[i].Indices)
	}
	return ranked
}

// sameRanking compares two rankings set by set: equal indices, pairs and
// block counts, and Cost and Balance equal as floats.
func sameRanking(got, want []CandidateSet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sets, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if !slices.Equal(g.Indices, w.Indices) || g.Subsets != w.Subsets ||
			g.Cost != w.Cost || g.Balance != w.Balance || !reflect.DeepEqual(g.Pairs, w.Pairs) {
			return fmt.Errorf("set %d: %v k=%d cost=%v balance=%v, reference %v k=%d cost=%v balance=%v",
				i, g.Indices, g.Subsets, g.Cost, g.Balance, w.Indices, w.Subsets, w.Cost, w.Balance)
		}
	}
	return nil
}

// scenarioGenerator builds firstRoundGenerator's generator for the scenario
// of the given seed.
func scenarioGenerator(t *testing.T, seed int64) *Generator {
	t.Helper()
	sc, err := scenario.Generate(seed, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	return firstRoundGenerator(t, sc)
}

// firstRoundGenerator builds a generator for a generated scenario the way a
// session's first round does: qbo's candidates at the server's cap of 32
// plus the target, restricted to the largest join-schema group.
func firstRoundGenerator(t *testing.T, sc *scenario.Scenario) *Generator {
	t.Helper()
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = 32
	qc, err := qbo.Generate(sc.DB, sc.R, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qc = append(qc, sc.Target)
	groups := map[string][]*algebra.Query{}
	largest := ""
	for _, q := range qc {
		k := fmt.Sprint(q.Tables)
		groups[k] = append(groups[k], q)
		if len(groups[k]) > len(groups[largest]) {
			largest = k
		}
	}
	group := groups[largest]
	j, err := db.Join(sc.DB, group[0].Tables)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(db.NewKeys(sc.DB), j, group, sc.R, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGenerator builds a generator over T(id, A, B, C, D) with nq random
// DNF queries over A, B and C, DISTINCT and bag, each projecting one to
// three columns, so pairs that change two attributes replace result tuples
// at different costs.
func randomGenerator(t *testing.T, seed int64, nq int) *Generator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := db.New()
	rel := relation.New("T", relation.NewSchema("id", relation.KindInt,
		"A", relation.KindInt, "B", relation.KindInt, "C", relation.KindString, "D", relation.KindInt))
	for i := 0; i < 16; i++ {
		rel.Append(relation.NewTuple(i, rng.Intn(10), rng.Intn(10), []string{"x", "y", "z"}[rng.Intn(3)], rng.Intn(4)))
	}
	d.MustAddTable(rel)
	d.AddPrimaryKey("T", "id")
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	ops := []algebra.Op{algebra.OpLE, algebra.OpGT, algebra.OpEQ, algebra.OpNE}
	term := func() algebra.Term {
		if rng.Intn(3) == 0 {
			return algebra.NewTerm("T.C", algebra.OpEQ, relation.Str([]string{"x", "y"}[rng.Intn(2)]))
		}
		attr := []string{"T.A", "T.B"}[rng.Intn(2)]
		return algebra.NewTerm(attr, ops[rng.Intn(len(ops))], relation.Int(int64(2+3*rng.Intn(2))))
	}
	cols := []string{"T.A", "T.B", "T.C", "T.D"}
	qc := make([]*algebra.Query, nq)
	for qi := range qc {
		var pred algebra.Predicate
		for c := 1 + rng.Intn(2); c > 0; c-- {
			conj := algebra.Conjunct{term()}
			if rng.Intn(2) == 0 {
				conj = append(conj, term())
			}
			pred = append(pred, conj)
		}
		proj := slices.Clone(cols)
		rng.Shuffle(len(proj), func(a, b int) { proj[a], proj[b] = proj[b], proj[a] })
		qc[qi] = &algebra.Query{Name: fmt.Sprintf("W%d", qi), Tables: []string{"T"},
			Projection: proj[:1+rng.Intn(3)], Pred: pred, Distinct: rng.Intn(3) == 0}
	}
	r := relation.New("R", relation.NewSchema("A", relation.KindInt)).Append(relation.NewTuple(1))
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// replaceTwins returns up to n of g's splitting pairs, led by pairs that
// share another pair's case vector, edit cost and tables but not its
// replace costs, so only the replace costs tell their signatures apart;
// it also reports how many such pairs lead.
func replaceTwins(g *Generator, n int) ([]ScoredPair, int) {
	all := g.EnumerateScoredPairs(0)
	key := func(p ScoredPair, withRepl bool) string {
		k := fmt.Sprint(p.Pair.EditCost) // one base table: the tables agree
		for qi := range g.Queries {
			k += fmt.Sprint(",", g.Space.CaseOf(p.Pair, qi))
			if withRepl && g.Space.CaseOf(p.Pair, qi) == 3 {
				k += fmt.Sprint(":", g.Space.ReplaceCost(p.Pair, qi))
			}
		}
		return k
	}
	variants := map[string]map[string]bool{}
	for _, p := range all {
		k := key(p, false)
		if variants[k] == nil {
			variants[k] = map[string]bool{}
		}
		variants[k][key(p, true)] = true
	}
	var twins, rest []ScoredPair
	for _, p := range all {
		if len(variants[key(p, false)]) > 1 {
			twins = append(twins, p)
		} else {
			rest = append(rest, p)
		}
	}
	out := append(twins, rest...)
	return out[:min(n, len(out))], min(n, len(twins))
}

// pickInput is one input of Algorithm 4's reference tests.
type pickInput struct {
	name string
	g    *Generator
	sp   []ScoredPair
	x    int
}

// pickInputs returns Example 5.1, Example 5.1's pairs whose source class
// has one row, generated scenarios, spaces whose pairs include
// replace-cost twins, and a space of more than 64 queries.
func pickInputs(t *testing.T) []pickInput {
	t.Helper()
	var inputs []pickInput
	e51 := example51Generator(t)
	inputs = append(inputs, pickInput{"example5.1", e51, e51.EnumerateScoredPairs(24), 1})
	var solo []ScoredPair
	for _, p := range e51.EnumerateScoredPairs(0) {
		if len(e51.srcRows[p.Pair.Src.Key()]) == 1 && len(solo) < 40 {
			solo = append(solo, p)
		}
	}
	inputs = append(inputs, pickInput{"example5.1-one-row", e51, solo, 1})
	for _, seed := range []int64{3, 11, 29, 42} {
		g := scenarioGenerator(t, seed)
		sp, stats := g.SkylinePairs()
		sp = append(sp, g.EnumerateScoredPairs(24)...)
		inputs = append(inputs, pickInput{fmt.Sprintf("scenario-%d", seed), g, sp, stats.X})
	}
	for _, seed := range []int64{12, 19} {
		g := randomGenerator(t, seed, 6)
		sp, twins := replaceTwins(g, 24)
		if twins < 4 {
			t.Fatalf("seed %d: %d replace-cost twins, want at least 4", seed, twins)
		}
		inputs = append(inputs, pickInput{fmt.Sprintf("twins-%d", seed), g, sp, 1})
	}
	wide := randomGenerator(t, 80, 80)
	if wide.Space.Words() < 2 {
		t.Fatalf("wide space has %d mask words, want 2", wide.Space.Words())
	}
	inputs = append(inputs, pickInput{"80-queries", wide, wide.EnumerateScoredPairs(20), 2})
	return inputs
}

// level2Listing runs level 1 of the search on the input and lists level 2
// the general way (list), returning level 1's set count and the number of
// children each level-2 parent lists.
func level2Listing(in pickInput) (int, []int) {
	s := newSearch(in.g.newEvalCtx(in.sp, in.x, 1), 1)
	defer s.release()
	frontier := s.grow([]frontierEntry{{balance: math.Inf(1)}}, 1, math.MaxInt, 0, &topK{k: maxCandidateSets})
	level1 := s.listed
	s.list(frontier, 2, math.MaxInt)
	kids := make([]int, len(frontier))
	for _, ch := range s.children {
		kids[ch.parent]++
	}
	return level1, kids
}

// level2Cuts returns two evaluation budgets that cut level 2: one at the
// first parent boundary past the middle of the listing, or past 500
// children when that comes first (the reference scores every set it
// lists), and one right after the first child of the parent that follows.
func level2Cuts(t *testing.T, in pickInput) (boundary, firstChild int) {
	t.Helper()
	level1, kids := level2Listing(in)
	listed := 0
	for _, k := range kids {
		listed += k
	}
	at := 0
	for _, k := range kids {
		if at >= min(listed/2, 500) && k > 0 {
			return level1 + at, level1 + at + 1
		}
		at += k
	}
	t.Fatalf("%s: level 2 lists %d children; no parent to cut at", in.name, listed)
	return 0, 0
}

// TestPickSubsetsMatchesReference runs PickSubsets against refPickSubsets
// on pickInputs at every combination of frontier cap (none, 1, 3, 64),
// evaluation budget (1500 sets, one that truncates level 2 part-way, one
// that cuts it at a parent boundary and one right after a parent's first
// child), strategy and worker count (1, 4), and requires the same ranked
// sets. One scenario is run again with kernel hashes truncated to 2 bits,
// so the frontier index and the slot table see colliding hashes and must
// resolve them by equality.
func TestPickSubsetsMatchesReference(t *testing.T) {
	inputs := pickInputs(t)
	run := func(in pickInput) {
		t.Helper()
		if len(in.sp) < 4 {
			t.Fatalf("%s: only %d pairs", in.name, len(in.sp))
		}
		boundary, firstChild := level2Cuts(t, in)
		for _, maxFrontier := range []int{0, 1, 3, 64} {
			for _, maxEval := range []int{1500, 2*len(in.sp) + 5, boundary, firstChild} {
				for _, strategy := range []Strategy{StrategyCostModel, StrategyMaxPartitions} {
					in.g.Opts.MaxFrontier, in.g.Opts.MaxSetsEvaluated, in.g.Opts.Strategy = maxFrontier, maxEval, strategy
					in.g.workers = 1
					want := refPickSubsets(in.g, in.sp, in.x)
					if len(want) == 0 {
						t.Fatalf("%s: reference ranked no sets", in.name)
					}
					for _, workers := range []int{1, 4} {
						in.g.workers = workers
						if err := sameRanking(in.g.PickSubsets(in.sp, in.x), want); err != nil {
							t.Fatalf("%s MaxFrontier=%d MaxSetsEvaluated=%d strategy=%d workers=%d: %v",
								in.name, maxFrontier, maxEval, strategy, workers, err)
						}
					}
				}
			}
		}
	}
	for _, in := range inputs {
		run(in)
	}
	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	run(inputs[5])
}

// level2Pass is what one way of running level 2 leaves behind: the listed
// count, each slot's signature multiset with its bound, the children that
// passed the pruning rule (by pair and slot multiset), the next frontier and
// the top-k.
type level2Pass struct {
	listed int
	slots  map[[2]int32]float64
	passed [][3]int32
	next   []frontierEntry
	best   []CandidateSet
}

func runLevel2(t *testing.T, s *search, frontier []frontierEntry, budget, limit int, walk bool) level2Pass {
	t.Helper()
	if walk {
		s.list2(frontier, budget)
	} else {
		s.list(frontier, 2, budget)
	}
	s.score()
	checkBoundedScores(t, s)
	best := &topK{k: maxCandidateSets}
	s.kept.reset(limit)
	if walk {
		s.replay2(frontier, best)
	} else {
		s.replay(frontier, 2, best)
	}
	r := level2Pass{listed: s.listed, slots: map[[2]int32]float64{}, best: best.sets}
	for id := range s.slotHash {
		r.slots[[2]int32(s.sigsOf(int32(id)))] = s.bound[id]
	}
	for _, ch := range s.children {
		sigs := s.sigsOf(ch.slot)
		r.passed = append(r.passed, [3]int32{ch.pair, sigs[0], sigs[1]})
	}
	r.next = s.nextFrontier(frontier, 2)
	return r
}

// checkBoundedScores checks every slot of the level against an unbounded
// evaluation: the same balance and block count, the same cost when the
// balance is below the slot's bound, and +Inf otherwise, where a set that
// splits has a finite cost, so its cost was not computed.
func checkBoundedScores(t *testing.T, s *search) {
	t.Helper()
	var scr evalScratch
	for id := range s.slotHash {
		sigs := s.sigsOf(int32(id))
		b, k := s.ctx.partition(sigs, &scr)
		c := s.ctx.price(sigs, &scr)
		if s.balance[id] != b || s.subsets[id] != k {
			t.Fatalf("slot %v: balance %v k=%d, unbounded %v k=%d", sigs, s.balance[id], s.subsets[id], b, k)
		}
		if b < s.bound[id] && s.cost[id] != c || !(b < s.bound[id]) && !math.IsInf(s.cost[id], 1) {
			t.Fatalf("slot %v: balance %v bound %v: cost %v, unbounded %v", sigs, b, s.bound[id], s.cost[id], c)
		}
	}
}

// TestLevel2WalksMatchListing runs level 2 of the search on every
// pickInput both ways: listing every child and replaying it (list, replay)
// and walking the frontier's positions twice (list2, replay2). Under no
// cut, a cut at a parent boundary and a cut right after a parent's first
// child, and with no frontier cap and a cap of 3, the two must count the
// same children, resolve the same slots with the same bounds, keep the same
// children in the same order, and leave the same next frontier and top-k.
// Every level 1 and level 2 slot is checked against an unbounded
// evaluation. It also requires that the inputs exercise the walks' one-row
// exclusion and a level 2 that keeps more than 64 children.
func TestLevel2WalksMatchListing(t *testing.T) {
	excluded, wide := false, false
	for _, in := range pickInputs(t) {
		boundary, firstChild := level2Cuts(t, in)
		for _, workers := range []int{1, 4} {
			s := newSearch(in.g.newEvalCtx(in.sp, in.x, workers), workers)
			frontier := s.grow([]frontierEntry{{balance: math.Inf(1)}}, 1, math.MaxInt, 0, &topK{k: maxCandidateSets})
			checkBoundedScores(t, s)
			level1 := s.listed
			for _, maxEval := range []int{50000, boundary, firstChild} {
				for _, limit := range []int{0, 3} {
					name := fmt.Sprintf("%s workers=%d MaxSetsEvaluated=%d MaxFrontier=%d", in.name, workers, maxEval, limit)
					want := runLevel2(t, s, frontier, maxEval-level1, limit, false)
					got := runLevel2(t, s, frontier, maxEval-level1, limit, true)
					if got.listed != want.listed || len(got.slots) != len(want.slots) {
						t.Fatalf("%s: walks list %d children in %d slots, listing %d in %d",
							name, got.listed, len(got.slots), want.listed, len(want.slots))
					}
					if !reflect.DeepEqual(got.slots, want.slots) {
						t.Fatalf("%s: walks resolve other slots or bounds than the listing", name)
					}
					if !reflect.DeepEqual(got.passed, want.passed) {
						t.Fatalf("%s: walks keep %d children, listing %d, or in another order",
							name, len(got.passed), len(want.passed))
					}
					if !reflect.DeepEqual(got.next, want.next) || !reflect.DeepEqual(got.best, want.best) {
						t.Fatalf("%s: next frontier or top-k differ", name)
					}
					if maxEval == 50000 && limit == 0 && len(got.passed) > 64 {
						wide = true
					}
				}
			}
			// The one-row exclusion fired when list2 listed fewer children
			// than the later positions of every parent.
			s.list2(frontier, math.MaxInt)
			if n := len(frontier); s.listed < n*(n-1)/2 {
				excluded = true
			}
			s.release()
		}
	}
	if !excluded {
		t.Error("no input has two pairs of one one-row source class: the exclusion went unexercised")
	}
	if !wide {
		t.Error("no input keeps more than 64 level-2 children at MaxFrontier 0")
	}
}

// TestEvaluateBound checks evaluate's bound on random signature multisets
// of Example 5.1's pairs: at bound +Inf, at the set's own balance and just
// above it, balance and block count always match an unbounded evaluation,
// and the cost matches whenever the balance is below the bound; otherwise
// it is +Inf.
func TestEvaluateBound(t *testing.T) {
	g := example51Generator(t)
	sp := g.EnumerateScoredPairs(0)
	ctx := g.newEvalCtx(sp, 1, 1)
	var scr evalScratch
	rng := rand.New(rand.NewSource(7))
	nsig := len(ctx.sigs) / ctx.sigLen
	below, atOrAbove := 0, 0
	for trial := 0; trial < 400; trial++ {
		sigs := make([]int32, rng.Intn(4))
		for i := range sigs {
			sigs[i] = int32(rng.Intn(nsig))
		}
		slices.Sort(sigs)
		b, k := ctx.partition(sigs, &scr)
		c := ctx.price(sigs, &scr)
		for _, bound := range []float64{math.Inf(1), b, math.Nextafter(b, math.Inf(1))} {
			gc, gb, gk := ctx.evaluate(sigs, bound, &scr)
			if gb != b || gk != k {
				t.Fatalf("%v at bound %v: balance %v k=%d, unbounded %v k=%d", sigs, bound, gb, gk, b, k)
			}
			switch {
			case b < bound:
				below++
				if gc != c {
					t.Fatalf("%v at bound %v: cost %v, unbounded %v", sigs, bound, gc, c)
				}
			default:
				atOrAbove++
				if !math.IsInf(gc, 1) {
					t.Fatalf("%v at bound %v: cost %v, want +Inf", sigs, bound, gc)
				}
			}
		}
	}
	if below == 0 || atOrAbove == 0 {
		t.Fatalf("%d evaluations below their bound, %d not: want both", below, atOrAbove)
	}
}
