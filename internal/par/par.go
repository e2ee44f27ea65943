// Package par provides the worker-scheduling primitives shared by the
// engine's parallel loops: Algorithm 3's per-class skyline enumeration and
// Algorithm 4's per-pair signatures and per-level scoring. Every parallel
// path in the repository funnels through Do / DoIndexed so that the
// Parallelism knob has one semantics everywhere: 0 selects
// runtime.GOMAXPROCS(0), 1 forces the serial path (no goroutines at all,
// loop order preserved), and n > 1 runs on n workers. Loops that measured
// no faster in parallel (batch evaluation, concrete partitioning, the
// equivalence merge) run serially and do not use this package.
//
// Since the round-pipeline PR the implementation is a chunked work-stealing
// scheduler (steal.go) rather than a shared atomic counter: each worker owns
// a contiguous slice of the iteration space, pops cache-friendly chunks from
// its head, and steals the back half of a straggler's remainder when its own
// range drains. Results must stay byte-identical to the serial loop at every
// worker count, which callers get by writing to index-addressed output slots
// — the scheduler only decides who computes an index, never what it computes.
package par

import "runtime"

// Workers resolves a Parallelism knob to a concrete worker count.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Do runs fn(i) for every i in [0, n). With workers <= 1 (or n <= 1) it
// degenerates to a plain serial loop in index order — the deterministic
// reference path. Otherwise min(workers, n) workers run the range with work
// stealing; fn must therefore be safe to call concurrently, and callers that
// need deterministic output collect per-index results and merge them in
// index order afterwards.
func Do(n, workers int, fn func(i int)) {
	DoIndexed(n, workers, func(_, i int) { fn(i) })
}

// DoIndexed is Do with the executing worker's id (0-based, stable for the
// call) passed alongside the item index, so callers can reuse per-worker
// scratch buffers across items without synchronisation. The serial path
// always reports worker 0. Worker ids must not influence results — only
// allocation reuse — or serial/parallel equivalence breaks.
//
// Never more than min(workers, n) workers are engaged — the degenerate
// n < workers case spawns no idle goroutines — and worker ids stay below
// that clamped count.
func DoIndexed(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	runStealing(n, workers, ownerChunk(n, workers), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(worker, i)
		}
	})
}

// ownerChunk sizes the owner-side pop: small enough that a straggler's
// un-popped remainder stays stealable, large enough to amortise the CAS.
// One sixteenth of a worker's fair share, floored at 1, keeps at least ~16
// steal opportunities per worker range.
func ownerChunk(n, workers int) int {
	c := n / (workers * 16)
	if c < 1 {
		c = 1
	}
	return c
}
