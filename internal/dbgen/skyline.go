package dbgen

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"qfe/internal/cost"
	"qfe/internal/par"
	"qfe/internal/tupleclass"
)

// ScoredPair is an (STC, DTC) pair with its single-pair partition statistics
// cached for Algorithm 4.
type ScoredPair struct {
	Pair    tupleclass.Pair
	Balance float64
	Sizes   []int
}

// SkylineStats reports Algorithm 3's enumeration effort and the Lemma 3.1
// quantity x extracted along the way.
type SkylineStats struct {
	Enumerated int
	X          int
	Truncated  bool // budget exhausted before the full space was covered
}

// SkylinePairs implements Algorithm 3 (Skyline-STC-DTC-Pairs): it enumerates
// (STC, DTC) pairs in non-descending edit cost (i = 1..n changed
// attributes), keeping for each level the pairs whose single-pair balance
// score matches the best seen so far. Enumeration stops when the budget is
// exhausted, returning the skyline discovered so far (the paper's behaviour
// under the time threshold).
//
// The most balanced *binary* partitioning observed supplies x (Lemma 3.1)
// for the iteration-count estimate used by Algorithm 4's cost evaluations.
//
// The source classes of each level are enumerated on the worker pool, each
// into its own accumulator, and the per-class skylines merged in class
// order. Every source class of level i has the same number C_i of
// destination classes (Space.CountClassesAt), so the pair budget is split
// into per-class quotas up front: class ci may enumerate
// clamp(remaining − ci·C_i, 0, C_i) pairs, which is exactly the prefix the
// serial sweep reaches before the budget cuts it. Every worker count thus
// yields the same pairs, order and stats as one worker. Only the δ time
// budget cuts where the clock says, and so depends on the machine and the
// schedule.
func (g *Generator) SkylinePairs() ([]ScoredPair, SkylineStats) {
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
				local.observe(g.score(ci, dst, cases[w]))
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
		sp = append(sp, acc.drain()...)
		if timedOut.Load() || (budget.MaxPairs > 0 && acc.enumerated >= budget.MaxPairs) {
			stats.Truncated = true
			break
		}
	}
	stats.Enumerated = acc.enumerated
	stats.X = acc.x
	return sp, stats
}

// skylineAcc accumulates Algorithm 3's running-minimum state. SkylinePairs
// keeps one per (level, source class), fed pair by pair through observe,
// and folds them into a running accumulator in class order through merge,
// which applies the same selection rule to a whole class at once.
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

// observe applies one enumerated pair: keep it if it ties the running
// minimum balance, restart the skyline if it strictly improves it, and
// extract x from the most balanced binary partition seen so far. p's
// destination class and sizes are borrowed (see kept).
func (a *skylineAcc) observe(p tupleclass.Pair, sizes []int, b float64) {
	a.enumerated++
	if len(sizes) == 2 && b < a.bestBinary {
		a.bestBinary = b
		x := sizes[0]
		if sizes[1] < x {
			x = sizes[1]
		}
		a.x = x
	}
	switch {
	case b < a.minBalance:
		a.minBalance = b
		a.pairs = append(a.pairs[:0], kept(p, sizes, b))
	case b == a.minBalance && !math.IsInf(b, 1):
		a.pairs = append(a.pairs, kept(p, sizes, b))
	}
}

// kept is the ScoredPair of an enumerated pair that outlives its
// callback. The destination class is the enumerator's and the sizes are
// the caller's scratch, both rewritten for the next pair, so it copies
// them.
func kept(p tupleclass.Pair, sizes []int, b float64) ScoredPair {
	p.Dst = p.Dst.Clone()
	return ScoredPair{Pair: p, Balance: b, Sizes: slices.Clone(sizes)}
}

// merge folds a class-local accumulator into the level accumulator, in
// class order — the same rule observe applies pair by pair: a class whose
// local minimum strictly improves the running minimum resets the level
// skyline, a tie appends in order.
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

// drain returns the pairs collected since the last drain (one level's
// skyline) and clears them, keeping the running minima for the next level.
func (a *skylineAcc) drain() []ScoredPair {
	pairs := a.pairs
	a.pairs = nil
	return pairs
}

// score computes the single-pair partition statistics of the pair from
// source class srcClasses[ci] to dst. It runs once per enumerated (STC, DTC)
// pair, so the cases come from the source class's precomputed match mask
// and word operations on the caller's scratch; the sizes live in that
// scratch too.
func (g *Generator) score(ci int, dst tupleclass.Class, cs *tupleclass.Cases) (tupleclass.Pair, []int, float64) {
	p := tupleclass.NewPair(g.srcClasses[ci].Class, dst)
	g.Space.CaseMasks(p, g.srcMatch[ci], cs)
	sizes := cs.Sizes()
	return p, sizes, cost.Balance(sizes)
}

// EnumerateScoredPairs collects up to maxPairs splitting pairs (finite
// balance) regardless of skyline membership, in deterministic order, with
// no budget. Generate falls back to it when the budgeted skyline comes back
// empty or unrealizable, and the |SP| scalability experiment (paper Table
// 5) uses it to feed Algorithm 4 artificially enlarged skyline sets.
func (g *Generator) EnumerateScoredPairs(maxPairs int) []ScoredPair {
	var out []ScoredPair
	cs := g.Space.NewCases()
	n := g.Space.NumPredicateAttrs()
	for i := 1; i <= n; i++ {
		for ci, sc := range g.srcClasses {
			g.Space.EnumerateClassesAt(sc.Class, i, func(dst tupleclass.Class) bool {
				if p, sizes, b := g.score(ci, dst, cs); !math.IsInf(b, 1) {
					out = append(out, kept(p, sizes, b))
				}
				return maxPairs <= 0 || len(out) < maxPairs
			})
			if maxPairs > 0 && len(out) >= maxPairs {
				return out
			}
		}
	}
	return out
}
