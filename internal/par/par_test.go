package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestDoCoversRangeExactlyOnce drives the scheduler across worker counts
// and sizes, asserting every index runs exactly once — the only functional
// contract the stealing core must keep.
func TestDoCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			counts := make([]atomic.Int32, n)
			Do(n, workers, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestDoIndexedWorkerIDsClamped pins the degenerate n < workers fix: worker
// ids must stay below min(workers, n), i.e. requesting 8 workers for 3 items
// engages at most 3 — no idle goroutines are spawned for the shortfall.
func TestDoIndexedWorkerIDsClamped(t *testing.T) {
	for _, tc := range []struct{ n, workers, maxID int }{
		{3, 8, 2},
		{1, 8, 0},
		{2, 16, 1},
		{5, 5, 4},
		{100, 4, 3},
	} {
		var maxSeen atomic.Int32
		maxSeen.Store(-1)
		DoIndexed(tc.n, tc.workers, func(worker, i int) {
			for {
				cur := maxSeen.Load()
				if int32(worker) <= cur || maxSeen.CompareAndSwap(cur, int32(worker)) {
					break
				}
			}
			if worker > tc.maxID {
				t.Errorf("n=%d workers=%d: worker id %d > %d", tc.n, tc.workers, worker, tc.maxID)
			}
		})
		if maxSeen.Load() < 0 && tc.n > 0 {
			t.Errorf("n=%d workers=%d: fn never ran", tc.n, tc.workers)
		}
	}
}

// TestDoDegenerate pins the n=0 and n=1 cases: n=0 never calls fn (and
// spawns nothing); n=1 runs exactly one call, as worker 0, synchronously on
// the caller's goroutine regardless of the requested worker count.
func TestDoDegenerate(t *testing.T) {
	DoIndexed(0, 8, func(worker, i int) {
		t.Errorf("n=0: unexpected call fn(%d, %d)", worker, i)
	})

	before := runtime.NumGoroutine()
	calls := 0
	DoIndexed(1, 8, func(worker, i int) {
		calls++ // unsynchronised on purpose: the n=1 fast path runs inline
		if worker != 0 || i != 0 {
			t.Errorf("n=1: got fn(%d, %d), want fn(0, 0)", worker, i)
		}
	})
	if calls != 1 {
		t.Errorf("n=1: fn ran %d times", calls)
	}
	// The serial fast path must not have left goroutines behind.
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("n=1 spawned goroutines: %d -> %d", before, after)
	}
}

// TestDoSerialPreservesOrder asserts the workers <= 1 reference path visits
// indexes in ascending order with worker id 0 — the determinism anchor every
// parallel path is compared against.
func TestDoSerialPreservesOrder(t *testing.T) {
	var order []int
	DoIndexed(100, 1, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial path reported worker %d", worker)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken at %d: %v", i, order[:i+1])
		}
	}
}

// TestDoBlocksCoverage asserts DoIndexed covers [0, n) exactly once, with
// worker ids below the worker count, at the sizes where the owner-side chunk
// grows: ownerChunk steps from k−1 to k between n = k·workers·16 − 1 and
// k·workers·16, so a chunk that overran or fell short of its range end
// would show there.
func TestDoBlocksCoverage(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		for _, k := range []int{1, 2, 5} {
			for _, d := range []int{-1, 0, 1} {
				n := k*workers*16 + d
				wantChunk := k
				if d < 0 {
					wantChunk = max(k-1, 1)
				}
				if got := ownerChunk(n, workers); got != wantChunk {
					t.Fatalf("n=%d workers=%d: ownerChunk = %d, want %d", n, workers, got, wantChunk)
				}
				counts := make([]atomic.Int32, n)
				DoIndexed(n, workers, func(worker, i int) {
					if worker < 0 || worker >= workers {
						t.Errorf("n=%d workers=%d: worker id %d", n, workers, worker)
					}
					counts[i].Add(1)
				})
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, got)
					}
				}
			}
		}
	}
}

// TestStealRange exercises the packed-word primitive directly: concurrent
// owner pops and thief steals must partition the range without loss or
// duplication.
func TestStealRange(t *testing.T) {
	const n = 1 << 14
	var r stealRange
	r.hb.Store(packRange(0, n))
	var covered [n]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(owner bool) {
			defer wg.Done()
			for {
				var lo, hi int
				var ok bool
				if owner {
					lo, hi, ok = r.take(7)
				} else {
					lo, hi, ok = r.steal()
				}
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	for i := range covered {
		if got := covered[i].Load(); got != 1 {
			t.Fatalf("index %d claimed %d times", i, got)
		}
	}
}

// TestDoMatchesSerialSum is a quick-check property: for random (n, workers),
// an order-insensitive fold over fn's calls matches the serial loop — the
// scheduler may reorder but never drop, duplicate or invent work.
func TestDoMatchesSerialSum(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		workers := 1 + rng.Intn(12)
		var sum atomic.Int64
		Do(n, workers, func(i int) { sum.Add(int64(i)*3 + 1) })
		want := int64(0)
		for i := 0; i < n; i++ {
			want += int64(i)*3 + 1
		}
		return sum.Load() == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
