// Storage-fault injection: a service.Journal-compatible wrapper around
// *wal.Log that scripts append failures at record-count trigger points.
// EIO and torn writes are delivered through the wal package's WriteHook so
// the failure happens inside the real write path (torn writes leave genuine
// partial records on disk for the log's truncate-back healing to remove);
// fsync stalls ride the SyncHook; ENOSPC is a time window enforced at the
// wrapper, which also fails Ping so health probes and degraded-mode
// recovery see the full disk exactly as long as appends do.
package fault

import (
	"fmt"
	"sync"
	"time"

	"qfe/internal/wal"
)

// Journal wraps a write-ahead log with scripted storage faults. It
// implements the service layer's Journal interface; Close closes the
// underlying log.
type Journal struct {
	inner *wal.Log
	logf  Logf
	now   func() time.Time
	sleep func(time.Duration)

	mu      sync.Mutex
	faults  []StorageFault
	fired   []bool
	records int // cumulative records offered to Append this process
	// Armed one-shot faults, consumed inside the wal hooks.
	pendingEIO   bool
	pendingTorn  *StorageFault
	pendingStall time.Duration
	// Active ENOSPC window.
	enospcUntil time.Time
}

// OpenJournal opens a WAL with the schedule's storage faults installed in
// its write/sync hooks and returns the faulting wrapper. With no storage
// faults in the schedule the wrapper is a transparent pass-through.
func OpenJournal(wopts wal.Options, sched *Schedule, logf Logf) (*Journal, error) {
	j := &Journal{logf: logf, now: time.Now, sleep: time.Sleep}
	if sched != nil {
		j.faults = append(j.faults, sched.Storage...)
	}
	j.fired = make([]bool, len(j.faults))
	wopts.WriteHook = j.writeHook
	wopts.SyncHook = j.syncHook
	l, err := wal.Open(wopts)
	if err != nil {
		return nil, err
	}
	j.inner = l
	return j, nil
}

// log emits a fault notice.
func (j *Journal) log(format string, args ...any) {
	if j.logf != nil {
		j.logf(format, args...)
	}
}

// armLocked fires every not-yet-fired fault whose trigger the record count
// has reached; caller holds j.mu.
func (j *Journal) armLocked() {
	for i, f := range j.faults {
		if j.fired[i] || j.records < f.AtRecord {
			continue
		}
		j.fired[i] = true
		d := f.Duration.D()
		if d <= 0 {
			d = time.Second
		}
		switch f.Kind {
		case KindEIO:
			j.pendingEIO = true
			j.log("fault: arming EIO at record %d", j.records)
		case KindTorn:
			f := f
			j.pendingTorn = &f
			j.log("fault: arming torn write at record %d", j.records)
		case KindStall:
			j.pendingStall = d
			j.log("fault: arming %s fsync stall at record %d", d, j.records)
		case KindENOSPC:
			j.enospcUntil = j.now().Add(d)
			j.log("fault: ENOSPC window open for %s at record %d", d, j.records)
		}
	}
}

// writeHook intercepts the WAL's batch write (called under the log lock;
// j.mu is never held across inner calls, so lock order is always log→j).
func (j *Journal) writeHook(b []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if t := j.pendingTorn; t != nil {
		j.pendingTorn = nil
		n := t.TornBytes
		if n <= 0 || n >= len(b) {
			n = len(b) / 2
		}
		j.log("fault: torn write: %d of %d bytes hit disk", n, len(b))
		return n, fmt.Errorf("injected torn write after %d bytes", n)
	}
	if j.pendingEIO {
		j.pendingEIO = false
		j.log("fault: EIO on append")
		return 0, fmt.Errorf("injected I/O error")
	}
	return len(b), nil
}

// syncHook intercepts fsync entry: an armed stall sleeps here, pinning the
// log lock exactly as a hung disk would.
func (j *Journal) syncHook() error {
	j.mu.Lock()
	d := j.pendingStall
	j.pendingStall = 0
	j.mu.Unlock()
	if d > 0 {
		j.log("fault: fsync stalling %s", d)
		j.sleep(d)
	}
	return nil
}

// enospcLocked reports an open ENOSPC window; caller holds j.mu.
func (j *Journal) enospcLocked() error {
	if j.now().Before(j.enospcUntil) {
		return fmt.Errorf("injected ENOSPC: no space left on device")
	}
	return nil
}

// Append counts the batch toward the trigger points, arms whatever fires,
// and delegates — the armed one-shots are consumed inside the inner log's
// own write path.
func (j *Journal) Append(recs ...wal.Record) error {
	j.mu.Lock()
	j.records += len(recs)
	j.armLocked()
	if err := j.enospcLocked(); err != nil {
		j.mu.Unlock()
		j.log("fault: ENOSPC rejects append of %d record(s)", len(recs))
		return err
	}
	j.mu.Unlock()
	return j.inner.Append(recs...)
}

// Ping fails while the ENOSPC window is open — the signal degraded mode and
// health probes recover on — and otherwise probes the real log.
func (j *Journal) Ping() error {
	j.mu.Lock()
	err := j.enospcLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return j.inner.Ping()
}

// Rotate delegates (checkpoint compaction is not a faulted path).
func (j *Journal) Rotate() (uint64, error) { return j.inner.Rotate() }

// TruncateBefore delegates.
func (j *Journal) TruncateBefore(boundary uint64) error { return j.inner.TruncateBefore(boundary) }

// Close closes the underlying log.
func (j *Journal) Close() error { return j.inner.Close() }
