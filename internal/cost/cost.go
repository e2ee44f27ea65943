// Package cost implements the paper's user-effort cost model (§3): the
// balance score of a query partitioning, the per-iteration effort
// cost(D') = currentCost + residualCost (Equations 1–5), and the estimation
// of the number of remaining iterations N (Equations 6–9, refined by
// Lemma 3.1).
package cost

import (
	"math"
)

// Params holds the model's configurable parameters.
type Params struct {
	// Beta scales the number of modified relations into attribute-
	// modification units in dbCost = minEdit(D,D') + β·n (Eq. 3).
	// The paper's default is 1.
	Beta float64
}

// DefaultParams returns the paper's default configuration (β = 1).
func DefaultParams() Params { return Params{Beta: 1} }

// Balance returns the balance score of a partitioning with the given subset
// sizes: σ/|C|, the standard deviation of sizes divided by the number of
// subsets (§3). Smaller is better. A "partitioning" into a single subset
// conveys no information, so its score is +Inf — such modifications must
// never be preferred.
func Balance(sizes []int) float64 {
	k := len(sizes)
	if k <= 1 {
		return math.Inf(1)
	}
	mean := 0.0
	for _, s := range sizes {
		mean += float64(s)
	}
	mean /= float64(k)
	variance := 0.0
	for _, s := range sizes {
		d := float64(s) - mean
		variance += d * d
	}
	variance /= float64(k)
	return math.Sqrt(variance) / float64(k)
}

// maxSize returns the largest subset size, 0 for empty input.
func maxSize(sizes []int) int {
	m := 0
	for _, s := range sizes {
		if s > m {
			m = s
		}
	}
	return m
}

// EstimateIterationsSimple implements Eq. 6: N = log₂(max |QCᵢ|), the
// optimistic estimate assuming perfectly balanced binary partitionings are
// always available in later rounds.
func EstimateIterationsSimple(sizes []int) float64 {
	m := maxSize(sizes)
	if m <= 1 {
		return 0
	}
	return math.Log2(float64(m))
}

// EstimateIterations implements the refined estimate of Eq. 7–9. x is the
// number of queries in the smaller subset of the most balanced *binary*
// partitioning available in the current iteration; by Lemma 3.1 no later
// binary partitioning can eliminate more than x false positives per round.
// When no binary partitioning exists (x ≤ 0), the simple estimate of Eq. 6
// is used, as the paper prescribes.
func EstimateIterations(sizes []int, x int) float64 {
	m := maxSize(sizes)
	if m <= 1 {
		return 0
	}
	if x <= 0 {
		return EstimateIterationsSimple(sizes)
	}
	n1 := m/x - 1 // Eq. 8: ⌊max/x⌋ − 1
	if n1 < 0 {
		n1 = 0
	}
	rem := m - x*n1
	var n2 float64 // Eq. 9: ⌈log₂(max − x·N1)⌉
	if rem > 1 {
		n2 = math.Ceil(math.Log2(float64(rem)))
	}
	return float64(n1) + n2
}

// Inputs gathers every measured quantity the cost model consumes for one
// candidate modified database D'.
type Inputs struct {
	// DBEdit is minEdit(D, D'): total attribute-modification cost.
	DBEdit int
	// ModifiedRelations is n, the number of base relations touched.
	ModifiedRelations int
	// ModifiedTuples is µ, the number of distinct base tuples touched.
	ModifiedTuples int
	// ResultEdits[i] is minEdit(R, Rᵢ) for each partitioned subset.
	ResultEdits []int
	// SubsetSizes[i] is |QCᵢ| for each partitioned subset (k = len).
	SubsetSizes []int
	// X is the smaller-side size of the most balanced binary partitioning
	// observed in the current iteration; 0 means "undefined" (fall back to
	// Eq. 6).
	X int
}

// CurrentCost returns dbCost + resultCost for the iteration (Eq. 2–4).
func (p Params) CurrentCost(in Inputs) float64 {
	dbCost := float64(in.DBEdit) + p.Beta*float64(in.ModifiedRelations)
	resultCost := 0.0
	for _, e := range in.ResultEdits {
		resultCost += float64(e)
	}
	return dbCost + resultCost
}

// Cost returns cost(D') per Eq. 5:
//
//	cost = minEdit(D,D') + β·n + Σᵢ minEdit(R,Rᵢ)
//	     + N × ( minEdit(D,D')/µ + β + (2/k)·Σᵢ minEdit(R,Rᵢ) )
//
// The residual term conservatively assumes the user picks the largest
// subset and that each later round is a binary partitioning induced by a
// single-tuple change whose cost is the current round's average.
func (p Params) Cost(in Inputs) float64 {
	current := p.CurrentCost(in)
	k := len(in.SubsetSizes)
	if k <= 1 {
		// No split: infinite effort, the generator must avoid this D'.
		return math.Inf(1)
	}
	n := EstimateIterations(in.SubsetSizes, in.X)
	sumResult := 0.0
	for _, e := range in.ResultEdits {
		sumResult += float64(e)
	}
	mu := float64(in.ModifiedTuples)
	if mu <= 0 {
		mu = 1
	}
	residualPerRound := float64(in.DBEdit)/mu + p.Beta + (2.0/float64(k))*sumResult
	return current + n*residualPerRound
}
