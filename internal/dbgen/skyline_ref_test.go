package dbgen

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/par"
	"qfe/internal/relation"
	"qfe/internal/scenario"
	"qfe/internal/tupleclass"
)

// refSkylinePairs is the reference for SkylinePairs: the same quotas and
// class-order merge, but every source class accumulates from a minimum of
// +Inf into its own slice of pairs, each kept pair a clone.
func refSkylinePairs(g *Generator) ([]ScoredPair, SkylineStats) {
	start := time.Now()
	budget := g.Opts.Budget
	var (
		sp       []ScoredPair
		stats    SkylineStats
		acc      = newSkylineAcc()
		timedOut atomic.Bool
	)
	cases := make([]*tupleclass.Cases, g.workers)
	for w := range cases {
		cases[w] = g.Space.NewCases()
	}
	n := g.Space.NumPredicateAttrs()
	for i := 1; i <= n; i++ {
		quota := func(int) int { return math.MaxInt }
		if budget.MaxPairs > 0 {
			remaining := budget.MaxPairs - acc.enumerated
			perClass := g.Space.CountClassesAt(i, remaining)
			quota = func(ci int) int { return min(perClass, max(0, remaining-ci*perClass)) }
		}
		locals := make([]skylineAcc, len(g.srcClasses))
		par.DoIndexed(len(g.srcClasses), g.workers, func(w, ci int) {
			local := &locals[ci]
			*local = newSkylineAcc()
			limit := quota(ci)
			if limit == 0 || timedOut.Load() {
				return
			}
			g.Space.EnumerateClassesAt(g.srcClasses[ci].Class, i, func(dst tupleclass.Class) bool {
				sizes, b := g.score(ci, dst, cases[w])
				local.observe(tupleclass.NewPair(g.srcClasses[ci].Class, dst), sizes, b)
				if budget.MaxDuration > 0 && time.Since(start) >= budget.MaxDuration {
					timedOut.Store(true)
					return false
				}
				return local.enumerated < limit && !timedOut.Load()
			})
		})
		for ci := range locals {
			acc.merge(&locals[ci])
		}
		sp = append(sp, acc.pairs...)
		acc.pairs = nil
		if timedOut.Load() || (budget.MaxPairs > 0 && acc.enumerated >= budget.MaxPairs) {
			stats.Truncated = true
			break
		}
	}
	stats.Enumerated = acc.enumerated
	stats.X = acc.x
	return sp, stats
}

// skylineAcc accumulates Algorithm 3's running-minimum state, fed pair by
// pair through observe and folded class by class through merge.
type skylineAcc struct {
	pairs      []ScoredPair // pairs at minBalance, in enumeration order
	minBalance float64
	bestBinary float64 // best balance among binary partitions seen
	x          int     // Lemma 3.1's x, from the first bestBinary achiever
	enumerated int
}

func newSkylineAcc() skylineAcc {
	return skylineAcc{minBalance: math.Inf(1), bestBinary: math.Inf(1)}
}

// observe keeps a pair that ties the minimum, restarts the skyline on a
// pair that improves it, and extracts x from the most balanced binary
// partition. The pair's destination is the enumerator's, so a kept pair
// keeps a clone.
func (a *skylineAcc) observe(p tupleclass.Pair, sizes []int, b float64) {
	a.enumerated++
	if len(sizes) == 2 && b < a.bestBinary {
		a.bestBinary = b
		a.x = min(sizes[0], sizes[1])
	}
	kept := func() ScoredPair {
		p.Dst = p.Dst.Clone()
		return ScoredPair{Pair: p, Balance: b}
	}
	switch {
	case b < a.minBalance:
		a.minBalance = b
		a.pairs = append(a.pairs[:0], kept())
	case b == a.minBalance && !math.IsInf(b, 1):
		a.pairs = append(a.pairs, kept())
	}
}

// merge folds a class-local accumulator into the level accumulator with
// observe's rule.
func (a *skylineAcc) merge(local *skylineAcc) {
	a.enumerated += local.enumerated
	if local.bestBinary < a.bestBinary {
		a.bestBinary = local.bestBinary
		a.x = local.x
	}
	switch {
	case local.minBalance < a.minBalance:
		a.minBalance = local.minBalance
		a.pairs = append(a.pairs[:0], local.pairs...)
	case local.minBalance == a.minBalance && !math.IsInf(local.minBalance, 1):
		a.pairs = append(a.pairs, local.pairs...)
	}
}

// skylineInputs returns first-round generators of the paper instances (when
// paper is set) and of a corpus-seed-1 prefix.
func skylineInputs(t *testing.T, paper bool, corpus int) []*Generator {
	t.Helper()
	var scs []*scenario.Scenario
	if paper {
		cur, err := scenario.Curated()
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, cur...)
	}
	gen, err := scenario.GenerateCorpus(1, corpus, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	scs = append(scs, gen...)
	out := make([]*Generator, len(scs))
	for i, sc := range scs {
		out[i] = firstRoundGenerator(t, sc)
	}
	return out
}

// TestSkylinePairsMatchesReference runs SkylinePairs against refSkylinePairs
// on first-round generators of the paper instances and a corpus-seed-1
// prefix, at workers 1, 2 and 4, under the sessions' budget of 100,000
// pairs and budgets of 1 pair, of one pair into the second level-1 class,
// of one pair into level 2 and of half a level-2 class, and requires the
// same pairs in the same order and the same statistics. The corpus prefix runs again with kernel
// hashes truncated to 2 bits, so its source classes collide.
func TestSkylinePairsMatchesReference(t *testing.T) {
	compare := func(name string, g *Generator) {
		t.Helper()
		perClass1 := g.Space.CountClassesAt(1, math.MaxInt)
		level1 := perClass1 * len(g.srcClasses)
		budgets := []int{100000, 1, perClass1 + 1, level1 + 1,
			level1 + max(1, g.Space.CountClassesAt(2, math.MaxInt)/2)}
		opts := g.Opts
		defer func() { g.Opts = opts }()
		for _, maxPairs := range budgets {
			g.Opts.Budget = Budget{MaxPairs: maxPairs}
			g.workers = 1
			want, wantStats := refSkylinePairs(g)
			for _, workers := range []int{1, 2, 4} {
				g.workers = workers
				got, stats := g.SkylinePairs()
				if stats != wantStats {
					t.Fatalf("%s MaxPairs=%d workers=%d: stats %+v, reference %+v",
						name, maxPairs, workers, stats, wantStats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s MaxPairs=%d workers=%d: %d pairs differ from the reference's %d",
						name, maxPairs, workers, len(got), len(want))
				}
			}
		}
	}
	gens := skylineInputs(t, true, 12)
	kept := 0
	for i, g := range gens {
		compare(fmt.Sprintf("input %d", i), g)
		sp, _ := g.SkylinePairs()
		kept += len(sp)
	}
	if kept < 100 {
		t.Fatalf("the inputs keep %d skyline pairs in all; too few to compare", kept)
	}

	relation.ForceHashCollisionsForTesting(2)
	defer relation.ForceHashCollisionsForTesting(0)
	for i, g := range skylineInputs(t, false, 12) {
		compare(fmt.Sprintf("collisions/input %d", i), g)
	}
}

// TestSkylinePairsAllocatesPerLevel checks that SkylinePairs's allocations
// do not grow with the pairs it keeps: on the first-round generator that
// keeps the most skyline pairs of a corpus prefix, a call allocates fewer
// times than it keeps pairs.
func TestSkylinePairsAllocatesPerLevel(t *testing.T) {
	var g *Generator
	most := 0
	for _, c := range skylineInputs(t, false, 24) {
		if sp, _ := c.SkylinePairs(); len(sp) > most {
			g, most = c, len(sp)
		}
	}
	if most < 64 {
		t.Fatalf("the largest skyline keeps %d pairs; too few to tell", most)
	}
	g.workers = 1
	allocs := testing.AllocsPerRun(5, func() { g.SkylinePairs() })
	levels := g.Space.NumPredicateAttrs()
	if allocs >= float64(most) {
		t.Errorf("SkylinePairs allocates %v times keeping %d pairs over %d levels", allocs, most, levels)
	}
	t.Logf("%v allocations keeping %d pairs over %d levels", allocs, most, levels)
}
