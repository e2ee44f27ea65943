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
	g, err := New(db.NewKeys(sc.DB), j, group, sc.R, testOptions(), 0)
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
	g, err := New(db.NewKeys(d), j, qc, r, testOptions(), 0)
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

// TestPickSubsetsMatchesReference runs PickSubsets against refPickSubsets
// on Example 5.1, generated scenarios, spaces whose pairs include
// replace-cost twins, and a space of more than 64 queries,
// at every combination of frontier cap (none, 1, 3, 64), evaluation budget
// (1500 sets, and one that truncates level 2 part-way), strategy and worker
// count (1, 4), and requires the same ranked sets. One scenario is run
// again with kernel hashes truncated to 2 bits, so the frontier index and
// the slot table see colliding hashes and must resolve them by equality.
func TestPickSubsetsMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    *Generator
		sp   []ScoredPair
		x    int
	}
	var inputs []input
	e51 := example51Generator(t)
	inputs = append(inputs, input{"example5.1", e51, e51.EnumerateScoredPairs(24), 1})
	for _, seed := range []int64{3, 11, 29, 42} {
		g := scenarioGenerator(t, seed)
		sp, stats := g.SkylinePairs()
		sp = append(sp, g.EnumerateScoredPairs(24)...)
		inputs = append(inputs, input{fmt.Sprintf("scenario-%d", seed), g, sp, stats.X})
	}
	for _, seed := range []int64{12, 19} {
		g := randomGenerator(t, seed, 6)
		sp, twins := replaceTwins(g, 24)
		if twins < 4 {
			t.Fatalf("seed %d: %d replace-cost twins, want at least 4", seed, twins)
		}
		inputs = append(inputs, input{fmt.Sprintf("twins-%d", seed), g, sp, 1})
	}
	wide := randomGenerator(t, 80, 80)
	if wide.Space.Words() < 2 {
		t.Fatalf("wide space has %d mask words, want 2", wide.Space.Words())
	}
	inputs = append(inputs, input{"80-queries", wide, wide.EnumerateScoredPairs(20), 2})

	run := func(in input) {
		t.Helper()
		if len(in.sp) < 4 {
			t.Fatalf("%s: only %d pairs", in.name, len(in.sp))
		}
		for _, maxFrontier := range []int{0, 1, 3, 64} {
			for _, maxEval := range []int{1500, 2*len(in.sp) + 5} {
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
	run(inputs[4])
}
