// Package wal provides the per-session write-ahead durability layer between
// snapshots (DESIGN.md §11): a segmented, CRC-per-record, append-only log of
// session lifecycle events. The service tier appends a record *before*
// acknowledging the transition it describes; after a crash, recovery loads
// the newest valid snapshot and deterministically replays the log's valid
// prefix through the engine, which is byte-identical by construction (the
// engine's determinism across restarts is what makes logging the *choice*
// sufficient — the round it produces need not be logged).
//
// On-disk layout: Dir holds segments named %016d.wal. Each segment starts
// with an 8-byte magic and carries length-prefixed records:
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32C of the payload
//	[]byte  payload (JSON-encoded Record)
//
// A crash can leave a torn record only at the tail of the newest segment
// (appends are sequential and each record is written with a single write).
// Replay therefore reads the longest valid prefix: a bad record at the tail
// of the last segment is a normal crash artifact (ReplayStats.TornTail);
// a bad record anywhere earlier indicates real corruption
// (ReplayStats.Corrupt) and everything after it is dropped — recovery
// proceeds with the prefix rather than guessing.
//
// Compaction pairs with snapshots: Rotate() starts a fresh segment and
// returns its index — every record appended earlier lives in a lower
// segment — then, once a snapshot capturing all live sessions has been
// atomically written (WriteFileAtomic), TruncateBefore(idx) deletes the
// segments the snapshot subsumes.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Type enumerates session lifecycle events.
type Type string

// Session lifecycle event types.
const (
	// TypeCreated carries the session's codec-encoded inputs and config —
	// everything replay needs to rebuild it from scratch.
	TypeCreated Type = "created"
	// TypeFeedback records one accepted feedback choice for round Seq.
	TypeFeedback Type = "feedback"
	// TypeFinished marks the session's outcome being reached.
	TypeFinished Type = "finished"
	// TypeAbandoned marks an explicit delete; replay skips the session.
	TypeAbandoned Type = "abandoned"
	// TypeDead marks a fatal engine error; replay tombstones the session.
	TypeDead Type = "dead"
)

// Record is one logged session event. Created payloads are opaque to this
// package (the service defines their schema), keeping the log format
// independent of the engine's wire types.
type Record struct {
	Type   Type   `json:"type"`
	ID     string `json:"id"`
	UnixNs int64  `json:"unixNs,omitempty"`
	// Seq is the session-global round number a feedback record answers
	// (1-based; rounds are numbered from 1).
	Seq int `json:"seq,omitempty"`
	// Choice is the feedback choice: a 0-based result index, or -1 for
	// "none of these". Deliberately not omitempty — 0 is a legal choice.
	Choice  int             `json:"choice"`
	Created json.RawMessage `json:"created,omitempty"`
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// Sync policies, strongest first.
const (
	// SyncAlways fsyncs after every append (durable against power loss).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer: bounded data loss on power
	// failure, none on process crash (the OS holds completed writes).
	SyncInterval
	// SyncOff never fsyncs; durability against process crash only.
	SyncOff
)

// ParseSyncPolicy maps flag spellings to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
}

// Options tunes a Log. Zero values select defaults.
type Options struct {
	// Dir holds the segments; created if missing.
	Dir string
	// SegmentBytes rotates the active segment when it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// Sync selects the sync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is SyncInterval's flush period (default 50ms).
	SyncInterval time.Duration
	// WriteHook, when set, intercepts every batch write — the seam
	// internal/fault uses to script storage failures. It reports how many
	// prefix bytes of the batch to actually write (n < len(b) produces a
	// genuine torn record on disk) and an error to surface to the caller.
	// A nil hook writes the whole batch.
	WriteHook func(b []byte) (n int, err error)
	// SyncHook, when set, runs in place of each fsync's entry: it may
	// sleep (fsync stall) and/or return an error (EIO), in which case the
	// real fsync is skipped and the error surfaces to the caller.
	SyncHook func() error
}

var (
	segMagic  = [8]byte{'q', 'f', 'e', 'w', 'a', 'l', 0, 1}
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
	maxRecLen = uint32(1 << 28) // sanity cap; larger lengths are corruption
)

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	opts Options

	mu      sync.Mutex
	f       *os.File
	seg     uint64 // index of the active segment
	size    int64  // bytes written to the active segment
	closed  bool
	broken  bool // torn tail could not be truncated away; log refuses appends
	stopSyn chan struct{}
}

// Open creates Dir if needed and opens a fresh segment after the newest
// existing one. It never appends to a pre-existing segment: a crashed
// process may have left a torn record at its tail, and a clean segment
// boundary keeps "longest valid prefix" equal to "everything acknowledged".
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	l := &Log{opts: opts, seg: next - 1}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stopSyn = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// segPath names segment idx inside dir.
func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d.wal", idx))
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		var idx uint64
		if n, err := fmt.Sscanf(e.Name(), "%016d.wal", &idx); n == 1 && err == nil &&
			e.Name() == fmt.Sprintf("%016d.wal", idx) {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// openSegmentLocked creates and syncs segment idx and makes it active.
func (l *Log) openSegmentLocked(idx uint64) error {
	f, err := os.OpenFile(segPath(l.opts.Dir, idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: segment header sync: %w", err)
		}
	}
	if l.f != nil {
		_ = l.f.Sync()
		_ = l.f.Close()
	}
	l.f = f
	l.seg = idx
	l.size = int64(len(segMagic))
	mRotations.Inc()
	mSegmentBytes.Set(l.size)
	return nil
}

// Append encodes and writes the records, then applies the sync policy once
// for the whole batch. The call returns only after the records are durable
// to the degree the policy promises — the caller may then acknowledge the
// transitions to the client.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("wal: encode: %w", err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.broken {
		return fmt.Errorf("wal: segment tail unrecoverable after failed write")
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.openSegmentLocked(l.seg + 1); err != nil {
			return err
		}
	}
	// One write per batch: a crash tears at most the batch's tail, never
	// interleaves records.
	n, hookErr := len(buf), error(nil)
	if l.opts.WriteHook != nil {
		n, hookErr = l.opts.WriteHook(buf)
		if n > len(buf) {
			n = len(buf)
		}
		if n < 0 {
			n = 0
		}
	}
	wrote := 0
	var werr error
	if n > 0 {
		wrote, werr = l.f.Write(buf[:n])
	}
	if werr == nil && hookErr != nil {
		werr = hookErr
	}
	if werr == nil && wrote < len(buf) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		// A failed or short write leaves a torn record at the segment
		// tail. Restore the invariant that a live segment holds only
		// whole records by truncating the partial bytes away; if even
		// that fails, latch the log broken — appending past torn bytes
		// would let replay's corruption rule drop later acknowledged
		// records, so a log that cannot heal its tail must refuse all
		// further appends (the node degrades and the cluster fails over).
		if terr := l.truncateTailLocked(); terr != nil {
			l.broken = true
		}
		return fmt.Errorf("wal: append: %w", werr)
	}
	l.size += int64(len(buf))
	mAppend.ObserveDuration(time.Since(start))
	mRecords.Add(uint64(len(recs)))
	mBytes.Add(uint64(len(buf)))
	mSegmentBytes.Set(l.size)
	if l.opts.Sync == SyncAlways {
		if err := l.syncTimed(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// truncateTailLocked drops any partially-written bytes past the last whole
// record and repositions the write offset (the file is plain O_WRONLY, not
// O_APPEND, so the offset must follow the truncation).
func (l *Log) truncateTailLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	_, err := l.f.Seek(l.size, io.SeekStart)
	return err
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	return l.syncTimed()
}

// Ping probes the log's ability to durably accept appends — the health
// check's WAL-writability signal. Unlike Sync (a no-op on a closed log, by
// design: the shutdown path calls it unconditionally), Ping reports a
// closed log as an error, because a node that can no longer journal must
// not acknowledge new transitions.
func (l *Log) Ping() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	if l.broken {
		return fmt.Errorf("wal: segment tail unrecoverable after failed write")
	}
	return l.syncTimed()
}

// syncLoop is SyncInterval's background flusher.
func (l *Log) syncLoop() {
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stopSyn:
			return
		}
	}
}

// Rotate closes the active segment and starts the next one, returning the
// new segment's index: every previously appended record lives in a segment
// below it. Checkpointing rotates first, snapshots, then truncates below
// the returned boundary.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if err := l.openSegmentLocked(l.seg + 1); err != nil {
		return 0, err
	}
	return l.seg, nil
}

// TruncateBefore deletes every segment with index below boundary (the
// compaction step after a successful snapshot). The active segment is never
// deleted.
func (l *Log) TruncateBefore(boundary uint64) error {
	l.mu.Lock()
	cur := l.seg
	l.mu.Unlock()
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx >= boundary || idx == cur {
			continue
		}
		if err := os.Remove(segPath(l.opts.Dir, idx)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return syncDir(l.opts.Dir)
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.stopSyn != nil {
		close(l.stopSyn)
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ReplayStats describes what Replay found.
type ReplayStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of valid records delivered.
	Records int
	// TornTail reports an incomplete or checksum-failed record at the tail
	// of the newest segment — the normal artifact of a crash mid-append.
	TornTail bool
	// Corrupt reports a bad record before the newest segment's tail: real
	// damage. Everything after the longest valid prefix was dropped.
	Corrupt bool
	// DroppedBytes counts bytes skipped after the valid prefix.
	DroppedBytes int64
}

// Replay reads every record of the log's longest valid prefix, in append
// order, and hands each to fn. A fn error aborts the replay and is returned.
// A missing directory replays nothing.
func Replay(dir string, fn func(Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return stats, err
	}
	for si, idx := range segs {
		stats.Segments++
		last := si == len(segs)-1
		bad, dropped, err := replaySegment(segPath(dir, idx), &stats, fn)
		if err != nil {
			return stats, err
		}
		if bad {
			stats.DroppedBytes += dropped
			if last {
				stats.TornTail = true
			} else {
				// Corruption mid-log: the remaining segments may reference
				// state the dropped records established; stop at the valid
				// prefix rather than replaying out of order.
				stats.Corrupt = true
				for _, rest := range segs[si+1:] {
					if fi, err := os.Stat(segPath(dir, rest)); err == nil {
						stats.DroppedBytes += fi.Size()
					}
				}
			}
			return stats, nil
		}
	}
	return stats, nil
}

// replaySegment streams one segment's records into fn. It reports (via bad)
// a torn or corrupt record, with the number of bytes dropped after the valid
// prefix; fn errors abort.
func replaySegment(path string, stats *ReplayStats, fn func(Record) error) (bad bool, dropped int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, 0, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != segMagic {
		// Header torn (crash during segment creation) or foreign file.
		return true, size, nil
	}
	off := int64(len(segMagic))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return false, 0, nil // clean end
			}
			return true, size - off, nil // torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecLen || off+8+int64(n) > size {
			return true, size - off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return true, size - off, nil
		}
		if crc32.Checksum(payload, crcTable) != want {
			return true, size - off, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return true, size - off, nil
		}
		off += 8 + int64(n)
		stats.Records++
		mReplayRecords.Inc()
		if err := fn(rec); err != nil {
			return false, 0, err
		}
	}
}
