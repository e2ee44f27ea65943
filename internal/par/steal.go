// Work-stealing core (DESIGN.md §10).
//
// The original pool pulled single indexes from one shared atomic counter:
// correct, but every item paid one contended atomic RMW, and uneven item
// costs serialised behind the hottest cache line. The scheduler here splits
// [0, n) into one contiguous range per worker; owners pop *chunks* from the
// head of their own range (amortising the atomics and preserving the
// sequential memory walk the columnar kernels want), and a worker whose
// range runs dry steals the back half of a victim's remainder. Work only
// ever shrinks — nothing is produced mid-run — so termination is one clean
// sweep: a worker exits when every range is empty.
//
// Determinism contract: the scheduler decides only WHICH worker executes an
// index and WHEN, never what the call computes or where results land.
// Callers write to index-addressed slots, so output is byte-identical to
// the serial loop at every worker count — deterministic merge, not
// deterministic execution order.
package par

import (
	"sync"
	"sync/atomic"
)

// stealRange is one worker's share of the iteration space, packed into a
// single atomic word: head in the high 32 bits, tail in the low 32. Owner
// pops (advancing head) and thief steals (retreating tail) both go through
// CAS on the same word, so the two ends can move concurrently without a
// lock and without ABA hazards (ranges only shrink).
//
// The struct is padded to its own cache line: ranges sit in one array, and
// an owner hammering its head must not false-share with its neighbour.
type stealRange struct {
	hb atomic.Uint64
	_  [7]uint64 // pad to 64 bytes
}

func packRange(head, tail int) uint64 { return uint64(head)<<32 | uint64(uint32(tail)) }

func unpackRange(v uint64) (head, tail int) { return int(v >> 32), int(uint32(v)) }

// take pops up to chunk indexes from the head of the range (owner side).
func (r *stealRange) take(chunk int) (lo, hi int, ok bool) {
	for {
		v := r.hb.Load()
		head, tail := unpackRange(v)
		if head >= tail {
			return 0, 0, false
		}
		c := chunk
		if rem := tail - head; c > rem {
			c = rem
		}
		if r.hb.CompareAndSwap(v, packRange(head+c, tail)) {
			return head, head + c, true
		}
	}
}

// steal takes the back half of the range's remainder (thief side), leaving
// the front — the part whose cache lines the owner is walking toward — in
// place. Stealing half at a time keeps the number of steals logarithmic in
// the imbalance instead of linear.
func (r *stealRange) steal() (lo, hi int, ok bool) {
	for {
		v := r.hb.Load()
		head, tail := unpackRange(v)
		if head >= tail {
			return 0, 0, false
		}
		half := (tail - head + 1) / 2
		if r.hb.CompareAndSwap(v, packRange(head, tail-half)) {
			return tail - half, tail, true
		}
	}
}

// runStealing executes fn(worker, lo, hi) over [0, n) on the given number of
// workers (callers have already clamped workers to a useful count and
// handled the serial path). chunk bounds how many indexes an owner claims
// per pop; stolen spans are re-popped chunkwise by the thief through its own
// range slot, so fn never sees a span longer than chunk.
func runStealing(n, workers, chunk int, fn func(worker, lo, hi int)) {
	ranges := make([]stealRange, workers)
	// Even initial split; the first n%workers ranges get one extra index.
	per, rem := n/workers, n%workers
	start := 0
	for w := 0; w < workers; w++ {
		end := start + per
		if w < rem {
			end++
		}
		ranges[w].hb.Store(packRange(start, end))
		start = end
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go workerLoop(ranges, w, chunk, fn, &wg)
	}
	// The caller's goroutine is worker 0: with hot caches and no handoff
	// latency it usually drains the largest share, and the fork-join costs
	// workers-1 spawns instead of workers.
	workerLoop(ranges, 0, chunk, fn, &wg)
	wg.Wait()
}

// workerLoop drains the worker's own range, then turns thief: it scans the
// other ranges round-robin, re-homes every successful steal into its own
// (empty) slot and drains it chunkwise. It exits after a full sweep finds
// every range empty — safe precisely because work is never added.
func workerLoop(ranges []stealRange, w, chunk int, fn func(worker, lo, hi int), wg *sync.WaitGroup) {
	defer wg.Done()
	self := &ranges[w]
	for {
		for {
			lo, hi, ok := self.take(chunk)
			if !ok {
				break
			}
			fn(w, lo, hi)
		}
		stole := false
		for off := 1; off < len(ranges); off++ {
			victim := &ranges[(w+off)%len(ranges)]
			if lo, hi, ok := victim.steal(); ok {
				// Re-home the stolen span so other thieves can in turn
				// steal from us, splitting large spans cooperatively.
				self.hb.Store(packRange(lo, hi))
				stole = true
				break
			}
		}
		if !stole {
			return
		}
	}
}
