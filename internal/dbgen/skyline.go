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

// ScoredPair is an (STC, DTC) pair with its single-pair balance score.
type ScoredPair struct {
	Pair    tupleclass.Pair
	Balance float64
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
// into its own classSkyline, and the per-class skylines merged in class
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
		timedOut atomic.Bool
	)
	// The running minimum and the best binary partition over the levels so
	// far, as the serial sweep would hold them after each level.
	minBalance, bestBinary := math.Inf(1), math.Inf(1)
	bufs := make([]skylineBuf, g.workers)
	for w := range bufs {
		bufs[w].cases = g.Space.NewCases()
	}
	classes := make([]classSkyline, len(g.srcClasses))
	var merged []int // contributing classes of a level, in class order
	n, width := g.Space.NumPredicateAttrs(), len(g.Space.Parts)
	for i := 1; i <= n; i++ {
		quota := func(int) int { return math.MaxInt }
		if budget.MaxPairs > 0 {
			remaining := budget.MaxPairs - stats.Enumerated
			perClass := g.Space.CountClassesAt(i, remaining)
			quota = func(ci int) int { return min(perClass, max(0, remaining-ci*perClass)) }
		}
		seed := minBalance
		par.DoIndexed(len(g.srcClasses), g.workers, func(w, ci int) {
			buf, cs := &bufs[w], &classes[ci]
			*cs = classSkyline{worker: w, start: len(buf.dst), min: seed, bestBinary: math.Inf(1)}
			limit := quota(ci)
			if limit == 0 || timedOut.Load() {
				return
			}
			g.Space.EnumerateClassesAt(g.srcClasses[ci].Class, i, func(dst tupleclass.Class) bool {
				sizes, b := g.score(ci, dst, buf.cases)
				cs.observe(buf, dst, sizes, b)
				if budget.MaxDuration > 0 && time.Since(start) >= budget.MaxDuration {
					timedOut.Store(true)
					return false
				}
				return cs.enumerated < limit && !timedOut.Load()
			})
		})
		// Merge in class order, the rule observe applies pair by pair: a
		// class whose minimum strictly improves the running minimum
		// restarts the level's skyline, a tie appends to it.
		merged = merged[:0]
		kept := 0
		for ci := range classes {
			cs := &classes[ci]
			stats.Enumerated += cs.enumerated
			if cs.bestBinary < bestBinary {
				bestBinary, stats.X = cs.bestBinary, cs.x
			}
			switch {
			case cs.min < minBalance:
				minBalance = cs.min
				merged, kept = append(merged[:0], ci), cs.count
			case cs.min == minBalance && cs.count > 0:
				merged, kept = append(merged, ci), kept+cs.count
			}
		}
		// Materialise the level's pairs, their destinations carved from
		// one arena.
		sp = slices.Grow(sp, kept)
		arena := make([]int, kept*width)
		for _, ci := range merged {
			cs := &classes[ci]
			src := bufs[cs.worker].dst[cs.start : cs.start+cs.count*width]
			for off := 0; off < len(src); off += width {
				dst := tupleclass.Class(arena[:width:width])
				arena = arena[width:]
				copy(dst, src[off:off+width])
				sp = append(sp, ScoredPair{Pair: tupleclass.NewPair(g.srcClasses[ci].Class, dst), Balance: minBalance})
			}
		}
		for w := range bufs {
			bufs[w].dst = bufs[w].dst[:0]
		}
		if timedOut.Load() || (budget.MaxPairs > 0 && stats.Enumerated >= budget.MaxPairs) {
			stats.Truncated = true
			break
		}
	}
	return sp, stats
}

// skylineBuf is one worker's scratch for Algorithm 3: its case masks, and
// the destination classes its source classes keep at the current level,
// back to back, each class's a contiguous run.
type skylineBuf struct {
	cases *tupleclass.Cases
	dst   []int
}

// classSkyline is one source class's skyline at one level: the count
// destinations it keeps in its worker's buffer from start on, all at
// balance min, and the best binary partition it saw with its x. min starts
// at the running minimum of the levels before, so a class that cannot join
// the level's skyline keeps nothing.
type classSkyline struct {
	worker, start, count int
	min                  float64
	bestBinary           float64
	x                    int
	enumerated           int
}

// observe applies one enumerated pair: keep its destination if it ties the
// class minimum, restart the class's run if it strictly improves it, and
// extract x from the most balanced binary partition seen so far.
func (c *classSkyline) observe(buf *skylineBuf, dst tupleclass.Class, sizes []int, b float64) {
	c.enumerated++
	if len(sizes) == 2 && b < c.bestBinary {
		c.bestBinary, c.x = b, min(sizes[0], sizes[1])
	}
	switch {
	case b < c.min:
		c.min, c.count = b, 1
		buf.dst = append(buf.dst[:c.start], dst...)
	case b == c.min && !math.IsInf(b, 1):
		c.count++
		buf.dst = append(buf.dst, dst...)
	}
}

// score computes the single-pair partition statistics of the pair from
// source class srcClasses[ci] to dst: its block sizes and balance. It runs
// once per enumerated (STC, DTC) pair, so the cases come from the source
// class's precomputed match mask and word operations on the caller's
// scratch; the sizes live in that scratch too.
func (g *Generator) score(ci int, dst tupleclass.Class, cs *tupleclass.Cases) ([]int, float64) {
	g.Space.CaseMasks(tupleclass.Pair{Src: g.srcClasses[ci].Class, Dst: dst}, g.srcMatch[ci], cs)
	sizes := cs.Sizes()
	return sizes, cost.Balance(sizes)
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
				if _, b := g.score(ci, dst, cs); !math.IsInf(b, 1) {
					// dst is the enumerator's, rewritten for the next class.
					out = append(out, ScoredPair{Pair: tupleclass.NewPair(sc.Class, dst.Clone()), Balance: b})
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
