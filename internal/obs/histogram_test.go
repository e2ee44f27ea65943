package obs

import (
	"math"
	"testing"
	"time"
)

// bucketIndex reports which slot an observation landed in (test helper:
// observe into a fresh histogram and find the incremented bucket).
func bucketIndex(t *testing.T, opts HistogramOpts, v int64) int {
	t.Helper()
	h := newHistogram(opts)
	h.Observe(v)
	counts := h.snapshotBuckets()
	idx := -1
	for i, c := range counts {
		if c == 1 {
			if idx >= 0 {
				t.Fatalf("Observe(%d) incremented two buckets (%d and %d)", v, idx, i)
			}
			idx = i
		} else if c != 0 {
			t.Fatalf("Observe(%d): bucket %d holds %d", v, i, c)
		}
	}
	if idx < 0 {
		t.Fatalf("Observe(%d) incremented no bucket", v)
	}
	return idx
}

func TestHistogramBucketBoundaries(t *testing.T) {
	size := HistogramOpts{MinExp: 0, MaxExp: 4} // bounds 1,2,4,8,16,+Inf
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, // v <= 2^MinExp -> first bucket
		{2, 1},
		{3, 2}, {4, 2}, // (2,4] -> le=4
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{17, 5}, {1 << 20, 5}, // past 2^MaxExp -> +Inf overflow
		{-7, 0}, // negative clamps to 0
	}
	for _, c := range cases {
		if got := bucketIndex(t, size, c.v); got != c.want {
			t.Errorf("Observe(%d): bucket %d, want %d", c.v, got, c.want)
		}
	}

	// Exact powers of two sit in the bucket they bound: v <= 2^e.
	lat := LatencyOpts // MinExp 10
	if got := bucketIndex(t, lat, 1024); got != 0 {
		t.Errorf("Observe(2^10): bucket %d, want 0", got)
	}
	if got := bucketIndex(t, lat, 1025); got != 1 {
		t.Errorf("Observe(2^10+1): bucket %d, want 1", got)
	}
	if got := bucketIndex(t, lat, 1<<35); got != 35-10 {
		t.Errorf("Observe(2^35): bucket %d, want %d", got, 35-10)
	}
	if got := bucketIndex(t, lat, 1<<35+1); got != 35-10+1 {
		t.Errorf("Observe(2^35+1): bucket %d (want overflow %d)", got, 35-10+1)
	}
}

func TestHistogramUpperBounds(t *testing.T) {
	h := newHistogram(HistogramOpts{MinExp: 2, MaxExp: 5})
	want := []float64{4, 8, 16, 32}
	if len(h.buckets) != len(want)+1 {
		t.Fatalf("bucket count %d, want %d finite + overflow", len(h.buckets), len(want))
	}
	for i, ub := range want {
		if got := h.upperBound(i); got != ub {
			t.Errorf("upperBound(%d) = %v, want %v", i, got, ub)
		}
	}
}

func TestHistogramSumCountAndSeconds(t *testing.T) {
	h := newHistogram(LatencyOpts)
	h.ObserveDuration(time.Millisecond)
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Sum() != int64(4*time.Millisecond) {
		t.Fatalf("Sum = %d, want %d", h.Sum(), int64(4*time.Millisecond))
	}
	// UnitSeconds scales exposition values by 1e9.
	if got := h.scale(float64(h.Sum())); math.Abs(got-0.004) > 1e-12 {
		t.Fatalf("scaled sum = %v, want 0.004", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(HistogramOpts{MinExp: 0, MaxExp: 10})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", q)
	}

	// 100 observations of 1 all land in [0,1]; every quantile interpolates
	// inside that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 of all-ones = %v, want within (0,1]", q)
	}

	// Add 100 observations in (512,1024]: the median stays in the first
	// bucket region, p90+ moves to the upper bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if q := h.Quantile(0.25); q > 1 {
		t.Errorf("p25 = %v, want <= 1", q)
	}
	if q := h.Quantile(0.9); q <= 512 || q > 1024 {
		t.Errorf("p90 = %v, want in (512,1024]", q)
	}
	// Quantiles are monotone in q.
	last := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Errorf("Quantile(%v) = %v below previous %v", q, v, last)
		}
		last = v
	}

	// Overflow-bucket hits report the largest finite bound, not +Inf.
	o := newHistogram(HistogramOpts{MinExp: 0, MaxExp: 3})
	o.Observe(1 << 20)
	if q := o.Quantile(0.99); q != 8 {
		t.Errorf("overflow Quantile = %v, want 8 (largest finite bound)", q)
	}
}
