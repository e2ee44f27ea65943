package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBalancePrefersEvenSplits(t *testing.T) {
	even := Balance([]int{5, 5})
	uneven := Balance([]int{9, 1})
	if even >= uneven {
		t.Errorf("balanced split should score lower: even=%v uneven=%v", even, uneven)
	}
	if even != 0 {
		t.Errorf("perfectly even split should be 0, got %v", even)
	}
}

func TestBalanceMoreSubsetsScoreLower(t *testing.T) {
	// Same stddev (0) but more subsets divides by a larger k.
	two := Balance([]int{4, 4})
	four := Balance([]int{2, 2, 2, 2})
	if two != 0 || four != 0 {
		t.Errorf("uniform splits should score 0: %v %v", two, four)
	}
	// With nonzero σ, more subsets reduce the score.
	a := Balance([]int{3, 1})
	b := Balance([]int{3, 1, 3, 1})
	if b >= a {
		t.Errorf("σ/|C| should shrink with more subsets: %v vs %v", a, b)
	}
}

func TestBalanceSingletonIsInf(t *testing.T) {
	if !math.IsInf(Balance([]int{7}), 1) {
		t.Error("no-split partitioning must be infinitely bad")
	}
	if !math.IsInf(Balance(nil), 1) {
		t.Error("empty partitioning must be infinitely bad")
	}
}

func TestBalanceKnownValue(t *testing.T) {
	// sizes {3,1}: mean 2, variance ((1)²+(1)²)/2 = 1, σ = 1, |C| = 2.
	if got := Balance([]int{3, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Balance({3,1}) = %v, want 0.5", got)
	}
}

func TestEstimateIterationsSimple(t *testing.T) {
	if got := EstimateIterationsSimple([]int{8, 2}); got != 3 {
		t.Errorf("log2(8) = %v, want 3", got)
	}
	if got := EstimateIterationsSimple([]int{1, 1}); got != 0 {
		t.Errorf("singleton subsets need 0 more iterations, got %v", got)
	}
	if got := EstimateIterationsSimple(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestEstimateIterationsRefined(t *testing.T) {
	// max=10, x=2: N1 = 10/2-1 = 4, rem = 10-8 = 2, N2 = 1, N = 5.
	if got := EstimateIterations([]int{10}, 2); got != 5 {
		t.Errorf("refined estimate = %v, want 5", got)
	}
	// x undefined falls back to Eq. 6.
	if got := EstimateIterations([]int{8}, 0); got != 3 {
		t.Errorf("fallback = %v, want 3", got)
	}
	// max <= 1: done.
	if got := EstimateIterations([]int{1}, 3); got != 0 {
		t.Errorf("done = %v, want 0", got)
	}
}

func TestEstimateRefinedAtLeastSimpleQuick(t *testing.T) {
	// Lemma 3.1 bounds progress, so the refined estimate is never more
	// optimistic than Eq. 6 when x is at most half the largest subset.
	f := func(m8, x8 uint8) bool {
		m := int(m8%60) + 2
		x := int(x8%uint8(m/2+1)) + 1
		simple := EstimateIterationsSimple([]int{m})
		refined := EstimateIterations([]int{m}, x)
		return refined >= math.Floor(simple)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCurrentCost(t *testing.T) {
	p := Params{Beta: 2}
	in := Inputs{
		DBEdit:            3,
		ModifiedRelations: 2,
		ResultEdits:       []int{1, 4},
		SubsetSizes:       []int{2, 2},
	}
	// dbCost = 3 + 2*2 = 7; resultCost = 5; total 12.
	if got := p.CurrentCost(in); got != 12 {
		t.Errorf("CurrentCost = %v, want 12", got)
	}
}

func TestCostEquation5(t *testing.T) {
	p := DefaultParams()
	in := Inputs{
		DBEdit:            2,
		ModifiedRelations: 1,
		ModifiedTuples:    2,
		ResultEdits:       []int{1, 1},
		SubsetSizes:       []int{2, 2},
		X:                 2,
	}
	// current = 2 + 1 + 2 = 5.
	// N: max=2, x=2 -> N1 = 0, rem=2, N2=1 -> N=1.
	// residual per round = 2/2 + 1 + (2/2)*2 = 1 + 1 + 2 = 4.
	// cost = 5 + 1*4 = 9.
	if got := p.Cost(in); math.Abs(got-9) > 1e-12 {
		t.Errorf("Cost = %v, want 9", got)
	}
}

func TestCostNoSplitInfinite(t *testing.T) {
	p := DefaultParams()
	if !math.IsInf(p.Cost(Inputs{SubsetSizes: []int{5}}), 1) {
		t.Error("cost of a non-splitting D' must be +Inf")
	}
}

func TestCostMonotoneInEdits(t *testing.T) {
	p := DefaultParams()
	base := Inputs{DBEdit: 1, ModifiedRelations: 1, ModifiedTuples: 1,
		ResultEdits: []int{1, 1}, SubsetSizes: []int{2, 2}, X: 2}
	more := base
	more.DBEdit = 5
	if p.Cost(more) <= p.Cost(base) {
		t.Error("more database edits must cost more")
	}
	more2 := base
	more2.ResultEdits = []int{4, 4}
	if p.Cost(more2) <= p.Cost(base) {
		t.Error("larger result deltas must cost more")
	}
}

func TestCostTradeoffBalanceVsEdits(t *testing.T) {
	// A modification splitting 16 queries evenly with 2 edits should beat
	// one splitting 15/1 with 1 edit, because the residual term dominates.
	p := DefaultParams()
	balanced := Inputs{DBEdit: 2, ModifiedRelations: 1, ModifiedTuples: 2,
		ResultEdits: []int{1, 1}, SubsetSizes: []int{8, 8}, X: 8}
	skewed := Inputs{DBEdit: 1, ModifiedRelations: 1, ModifiedTuples: 1,
		ResultEdits: []int{1, 1}, SubsetSizes: []int{15, 1}, X: 1}
	if p.Cost(balanced) >= p.Cost(skewed) {
		t.Errorf("balanced split should win: balanced=%v skewed=%v",
			p.Cost(balanced), p.Cost(skewed))
	}
}

func TestDefaultParams(t *testing.T) {
	if DefaultParams().Beta != 1 {
		t.Error("paper default β is 1")
	}
}
