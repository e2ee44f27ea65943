// Crash-recovery test suite for the WAL durability path (DESIGN.md §11):
// recovery at every crash point is differential against an uninterrupted
// run, across engine worker counts; snapshot+tail recovery, torn and
// corrupt logs, checkpoint truncation, seq-idempotent feedback, and a
// Checkpoint racing live feedback round out the matrix. Run with
// -race: the replay path is parallel across sessions.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/wal"
)

// walManager builds a manager journaling into dir, with the deterministic
// pair-budget config recovery replay requires.
func walManager(t *testing.T, dir string, parallelism int) (*Manager, *wal.Log) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	opts := testOptions()
	opts.Config.Parallelism = parallelism
	opts.Journal = l
	return New(opts), l
}

// collectRecords reads the full WAL back.
func collectRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	var recs []wal.Record
	if _, err := wal.Replay(dir, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeWALPrefix writes the given records into a fresh WAL directory,
// simulating a log that a crash cut after the last of them.
func writeWALPrefix(t *testing.T, recs []wal.Record) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 {
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// outcomeFingerprint reduces an outcome to its comparable identity.
func outcomeFingerprint(out *core.Outcome) string {
	q := "<none>"
	if out.Query != nil {
		q = out.Query.Key()
	}
	rem := ""
	for _, r := range out.Remaining {
		rem += r.Key() + ";"
	}
	return fmt.Sprintf("found=%v ambiguous=%v query=%s remaining=%s rounds=%d modcost=%d",
		out.Found, out.Ambiguous, q, rem, len(out.Iterations), out.TotalModCost)
}

// TestRecoverAtEveryPoint is the core differential guarantee: crash the
// journaled session after every prefix of its feedback history, recover a
// fresh manager from the WAL alone (no snapshot), resume with the same
// oracle, and demand the identical outcome and per-round statistics as an
// uninterrupted one-worker run — at every engine worker count, under a
// budget that never cuts Algorithm 3 and under one that cuts its rounds.
func TestRecoverAtEveryPoint(t *testing.T) {
	d, r := employeeDB()
	demoD, demoR, err := datasetPair("demo", "")
	if err != nil {
		t.Fatal(err)
	}
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = 32
	demoQC, err := qbo.Generate(demoD, demoR, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prefix   string
		d        *db.Database
		r        *relation.Relation
		qc       []*algebra.Query
		maxPairs int
	}{
		{"", d, r, paperCandidates(), 100000},
		{"pairs=20/", demoD, demoR, demoQC, 20},
	} {
		oracle := feedback.Target{Query: c.qc[2]}
		options := func(workers int) Options {
			opts := testOptions()
			opts.Config.Gen.Budget = dbgen.Budget{MaxPairs: c.maxPairs}
			opts.Config.Parallelism = workers
			return opts
		}

		// Reference: uninterrupted, serial.
		ref := New(options(1))
		rst, err := ref.Create(c.d, c.r, c.qc)
		if err != nil {
			t.Fatal(err)
		}
		refOut := driveToOutcome(t, ref, rst.ID, oracle)
		want := outcomeSignature(refOut)
		if c.maxPairs < 100000 && refOut.Iterations[0].Enumerated != c.maxPairs {
			t.Fatalf("%sthe budget does not cut the first round: %s", c.prefix, want)
		}

		for _, workers := range []int{1, 2, 4} {
			workers := workers
			t.Run(fmt.Sprintf("%sworkers=%d", c.prefix, workers), func(t *testing.T) {
				walDir := t.TempDir()
				l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				opts := options(workers)
				opts.Journal = l
				m1 := New(opts)
				st, err := m1.Create(c.d, c.r, c.qc)
				if err != nil {
					t.Fatal(err)
				}
				id := st.ID
				if got := outcomeSignature(driveToOutcome(t, m1, id, oracle)); got != want {
					t.Fatalf("live outcome differs from reference:\n  got  %s\n  want %s", got, want)
				}

				recs := collectRecords(t, walDir)
				var feedbacks int
				for _, rec := range recs {
					if rec.Type == wal.TypeFeedback {
						feedbacks++
					}
				}
				if feedbacks == 0 {
					t.Fatal("session produced no feedback records")
				}

				// Crash after created + k feedbacks, for every k.
				for k := 0; k <= feedbacks; k++ {
					var prefix []wal.Record
					seen := 0
					for _, rec := range recs {
						if rec.Type == wal.TypeFeedback {
							if seen == k {
								break
							}
							seen++
						}
						prefix = append(prefix, rec)
					}
					crashDir := writeWALPrefix(t, prefix)

					m2 := New(options(workers))
					stats, err := m2.Recover("", crashDir)
					if err != nil {
						t.Fatalf("k=%d: recover: %v", k, err)
					}
					if len(stats.Errors) > 0 {
						t.Fatalf("k=%d: recover errors: %v", k, stats.Errors)
					}
					if stats.ReplaySessions != 1 {
						t.Fatalf("k=%d: replayed %d sessions, want 1", k, stats.ReplaySessions)
					}
					st2, err := m2.Get(id)
					if err != nil {
						t.Fatalf("k=%d: recovered session gone: %v", k, err)
					}
					if k < feedbacks {
						if st2.Done() || st2.Round == nil || st2.Round.Seq != k+1 {
							t.Fatalf("k=%d: resumed at wrong round: %+v", k, st2.Round)
						}
					}
					if got := outcomeSignature(driveToOutcome(t, m2, id, oracle)); got != want {
						t.Fatalf("k=%d: recovered outcome differs:\n  got  %s\n  want %s", k, got, want)
					}
				}
			})
		}
	}
}

// TestRecoverSnapshotPlusTail checkpoints mid-session (snapshot + WAL
// truncation) then crashes: recovery must combine the snapshot with the
// surviving tail and land exactly where the crash happened.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	oracle := feedback.Target{Query: qc[2]}

	ref := New(testOptions())
	rst, err := ref.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeFingerprint(driveToOutcome(t, ref, rst.ID, oracle))

	walDir := t.TempDir()
	snapPath := filepath.Join(t.TempDir(), "state.json")
	m1, _ := walManager(t, walDir, 1)
	st, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// One feedback, then checkpoint (truncates the created record), then
	// one more feedback that only the WAL tail knows about.
	choice, ok, err := oracle.Choose(st.Round.View)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		choice = core.NoneOfThese
	}
	st, err = m1.FeedbackAt(context.Background(), id, st.Round.Seq, choice)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m1.Checkpoint(snapPath); err != nil || n != 1 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	if !st.Done() {
		choice, ok, err = oracle.Choose(st.Round.View)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			choice = core.NoneOfThese
		}
		if _, err := m1.FeedbackAt(context.Background(), id, st.Round.Seq, choice); err != nil {
			t.Fatal(err)
		}
	}

	// The checkpoint must have truncated the pre-rotate history: replaying
	// the surviving tail alone cannot rebuild the session from scratch.
	sawCreated := false
	for _, rec := range collectRecords(t, walDir) {
		if rec.Type == wal.TypeCreated {
			sawCreated = true
		}
	}
	if sawCreated {
		t.Fatal("checkpoint did not truncate the created record")
	}

	m2 := New(testOptions())
	stats, err := m2.Recover(snapPath, walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Errors) > 0 {
		t.Fatalf("recover errors: %v", stats.Errors)
	}
	if stats.SnapshotSessions != 1 {
		t.Fatalf("snapshot sessions = %d", stats.SnapshotSessions)
	}
	if got := outcomeFingerprint(driveToOutcome(t, m2, id, oracle)); got != want {
		t.Fatalf("snapshot+tail outcome differs:\n  got  %s\n  want %s", got, want)
	}
}

// TestRecoverTornTail truncates the newest WAL segment mid-record: recovery
// must keep the longest durable prefix, flag the torn tail, and the session
// must still reach the reference outcome when resumed.
func TestRecoverTornTail(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	oracle := feedback.Target{Query: qc[2]}

	ref := New(testOptions())
	rst, err := ref.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeFingerprint(driveToOutcome(t, ref, rst.ID, oracle))

	walDir := t.TempDir()
	m1, l := walManager(t, walDir, 1)
	st, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	driveToOutcome(t, m1, id, oracle)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 3 bytes of the newest segment.
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(walDir, ents[len(ents)-1].Name())
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := New(testOptions())
	stats, err := m2.Recover("", walDir)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WAL.TornTail {
		t.Fatalf("torn tail not flagged: %+v", stats.WAL)
	}
	if len(stats.Errors) > 0 {
		t.Fatalf("recover errors: %v", stats.Errors)
	}
	if got := outcomeFingerprint(driveToOutcome(t, m2, id, oracle)); got != want {
		t.Fatalf("torn-tail outcome differs:\n  got  %s\n  want %s", got, want)
	}
}

// TestRecoverCorruptMidLog flips a byte in a non-final segment: everything
// from the corruption on is dropped and flagged, and the session still
// resumes from the surviving prefix.
func TestRecoverCorruptMidLog(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	oracle := feedback.Target{Query: qc[2]}

	ref := New(testOptions())
	rst, err := ref.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeFingerprint(driveToOutcome(t, ref, rst.ID, oracle))

	walDir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Journal = l
	m1 := New(opts)
	// SegmentBytes 1 puts each append in its own segment: seg1 = A created,
	// seg2 = B created, seg3.. = A's feedback. Corrupting seg2 is a mid-log
	// hit that drops B and A's feedback but keeps A's created record.
	stA, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	driveToOutcome(t, m1, stA.ID, oracle)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 4 {
		t.Fatalf("expected one segment per append, got %d files", len(ents))
	}
	victim := filepath.Join(walDir, ents[2].Name())
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := New(testOptions())
	stats, err := m2.Recover("", walDir)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WAL.Corrupt {
		t.Fatalf("corruption not flagged: %+v", stats.WAL)
	}
	// B and everything after the corruption are gone; A is back at round 1
	// and must still reach the reference outcome.
	if _, err := m2.Get(stB.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("session after corruption point should be dropped, got %v", err)
	}
	if got := outcomeFingerprint(driveToOutcome(t, m2, stA.ID, oracle)); got != want {
		t.Fatalf("post-corruption outcome differs:\n  got  %s\n  want %s", got, want)
	}
}

// TestRecoverHonoursAbandonAndCap replays a WAL whose sessions include an
// abandoned one (must stay gone) and more live sessions than the cap
// (idlest evicted).
func TestRecoverHonoursAbandon(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()

	walDir := t.TempDir()
	m1, _ := walManager(t, walDir, 1)
	keep, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := m1.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Abandon(gone.ID); err != nil {
		t.Fatal(err)
	}

	m2 := New(testOptions())
	if _, err := m2.Recover("", walDir); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Get(keep.ID); err != nil {
		t.Fatalf("live session not recovered: %v", err)
	}
	if _, err := m2.Get(gone.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("abandoned session resurrected: %v", err)
	}
}

// TestSaveRacingFeedback runs Checkpoint in a loop while sessions take
// concurrent feedback (run under -race): every checkpoint must be loadable
// and internally consistent.
func TestSaveRacingFeedback(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	walDir := t.TempDir()
	snapPath := filepath.Join(t.TempDir(), "state.json")
	m, _ := walManager(t, walDir, 1)

	const sessions = 4
	ids := make([]string, sessions)
	for i := range ids {
		st, err := m.Create(d, r, qc)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracle := feedback.WorstCase{}
			st, err := m.Get(id)
			if err != nil {
				t.Error(err)
				return
			}
			for !st.Done() {
				choice, ok, err := oracle.Choose(st.Round.View)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					choice = core.NoneOfThese
				}
				st, err = m.FeedbackAt(context.Background(), id, st.Round.Seq, choice)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	checkpointDone := make(chan struct{})
	go func() {
		defer close(checkpointDone)
		for i := 0; i < 20; i++ {
			if _, err := m.Checkpoint(snapPath); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-checkpointDone

	// The final durable state must recover every session.
	if _, err := m.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	m2 := New(testOptions())
	stats, err := m2.Recover(snapPath, walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Errors) > 0 {
		t.Fatalf("recover errors: %v", stats.Errors)
	}
	for _, id := range ids {
		st, err := m2.Get(id)
		if err != nil {
			t.Fatalf("session %s lost: %v", id, err)
		}
		if !st.Done() {
			t.Fatalf("session %s not finished after recovery: %+v", id, st)
		}
	}
}

// TestFeedbackAtIdempotent exercises the at-most-once protocol: a retried
// seq is absorbed without double-applying, and a seq from the future is the
// lost-state detector.
func TestFeedbackAtIdempotent(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	qc := paperCandidates()
	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if st.Round.Seq != 1 {
		t.Fatalf("first round seq = %d", st.Round.Seq)
	}

	st2, err := m.FeedbackAt(context.Background(), id, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Retry of the same (seq, choice): must not step the engine again.
	st3, err := m.FeedbackAt(context.Background(), id, 1, 0)
	if err != nil {
		t.Fatalf("idempotent retry errored: %v", err)
	}
	if !statusEqual(st2, st3) {
		t.Fatalf("retry changed state:\n  first %+v\n  retry %+v", st2, st3)
	}
	// A retry with a different choice for an absorbed seq is also absorbed:
	// the server's acknowledged history wins.
	if _, err := m.FeedbackAt(context.Background(), id, 1, core.NoneOfThese); err != nil {
		t.Fatalf("stale-seq retry errored: %v", err)
	}
	// Future seq: the client knows rounds the server never produced.
	if _, err := m.FeedbackAt(context.Background(), id, 99, 0); !errors.Is(err, ErrSeqAhead) {
		t.Fatalf("want ErrSeqAhead, got %v", err)
	}
}

func statusEqual(a, b Status) bool {
	if a.ID != b.ID || a.Done() != b.Done() {
		return false
	}
	if (a.Round == nil) != (b.Round == nil) {
		return false
	}
	if a.Round != nil && a.Round.Seq != b.Round.Seq {
		return false
	}
	return true
}

// TestAbandonFinishedNotCounted is the satellite-2 regression: deleting an
// already-finished session is cleanup, not abandonment.
func TestAbandonFinishedNotCounted(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	qc := paperCandidates()
	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	driveToOutcome(t, m, st.ID, feedback.WorstCase{})
	if err := m.Abandon(st.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.SessionsAbandoned != 0 {
		t.Errorf("finished session counted as abandoned: %d", s.SessionsAbandoned)
	}

	// A genuinely live session still counts.
	st, err = m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abandon(st.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.SessionsAbandoned != 1 {
		t.Errorf("live abandon not counted: %d", s.SessionsAbandoned)
	}
}

// TestLoadEnforcesCapacity is the satellite-3 regression: restored sessions
// obey MaxSessions, evicting idlest-first, and surface the restored count.
func TestLoadEnforcesCapacity(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	now := time.Unix(1000, 0)
	opts := testOptions()
	opts.Clock = func() time.Time { return now }
	m1 := New(opts)

	ids := make([]string, 3)
	for i := range ids {
		st, err := m1.Create(d, r, qc)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		now = now.Add(time.Minute) // distinct lastUsed: ids[0] is idlest
	}
	_, state := checkpointed(t, m1)

	small := testOptions()
	small.MaxSessions = 2
	// Same frozen clock: with the real clock, the decades-old lastUsed
	// stamps would TTL-evict everything on first Get.
	small.Clock = func() time.Time { return now }
	m2 := New(small)
	n, errs := m2.Load(bytes.NewReader(state))
	if n != 3 {
		t.Fatalf("loaded %d sessions, want 3", n)
	}
	if len(errs) == 0 {
		t.Fatal("over-cap load reported no eviction")
	}
	if _, err := m2.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idlest session should be evicted, got %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m2.Get(id); err != nil {
			t.Fatalf("recently used session %s evicted: %v", id, err)
		}
	}
	s := m2.Stats()
	if s.SessionsRestored != 3 {
		t.Errorf("sessionsRestored = %d, want 3", s.SessionsRestored)
	}
	if s.SessionsEvicted != 1 {
		t.Errorf("sessionsEvicted = %d, want 1", s.SessionsEvicted)
	}
	if s.Live > 2 {
		t.Errorf("live %d exceeds cap 2", s.Live)
	}
}

// TestCheckpointAtomicNoLitter verifies the snapshot file is replaced
// atomically (no temp files left, always valid JSON).
func TestCheckpointAtomicNoLitter(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "state.json")
	m := New(testOptions())
	if _, err := m.Create(d, r, qc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Checkpoint(snapPath); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "state.json" {
		t.Fatalf("directory litter: %v", ents)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m2 := New(testOptions())
	if n, errs := m2.Load(f); n != 1 || len(errs) > 0 {
		t.Fatalf("checkpoint not loadable: n=%d errs=%v", n, errs)
	}
}

// flakyJournal wraps a real log with a switchable failure, standing in for
// a disk that starts erroring and later heals (the fault package's wrapper
// does the same at scripted trigger points; this one is hand-driven so the
// test controls exactly which append fails).
type flakyJournal struct {
	inner *wal.Log
	mu    sync.Mutex
	fail  error
}

func (f *flakyJournal) setFail(err error) {
	f.mu.Lock()
	f.fail = err
	f.mu.Unlock()
}

func (f *flakyJournal) failing() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

func (f *flakyJournal) Append(recs ...wal.Record) error {
	if err := f.failing(); err != nil {
		return err
	}
	return f.inner.Append(recs...)
}

func (f *flakyJournal) Ping() error {
	if err := f.failing(); err != nil {
		return err
	}
	return f.inner.Ping()
}

func (f *flakyJournal) Rotate() (uint64, error)              { return f.inner.Rotate() }
func (f *flakyJournal) TruncateBefore(boundary uint64) error { return f.inner.TruncateBefore(boundary) }

// TestFeedbackExactlyOnceThroughEIO is the degraded-mode contract end to
// end: a feedback that hits a journal I/O error is refused with ErrDegraded
// (the engine has advanced, but the client must NOT treat the round as
// acknowledged), reads keep working, and the client's seq-idempotent retry
// after the fault clears journals the stashed records and acknowledges the
// SAME round exactly once — leaving a WAL that a fresh manager recovers to
// the identical outcome.
func TestFeedbackExactlyOnceThroughEIO(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	oracle := feedback.Target{Query: qc[2]}

	// Reference outcome from an unfaulted run.
	ref := New(testOptions())
	rst, err := ref.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeFingerprint(driveToOutcome(t, ref, rst.ID, oracle))

	walDir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fj := &flakyJournal{inner: l}
	opts := testOptions()
	opts.Journal = fj
	m := New(opts)

	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	// Answer round 1 the way the reference run did, so outcomes compare.
	choice, ok, err := oracle.Choose(st.Round.View)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		choice = core.NoneOfThese
	}

	// The disk starts failing: feedback must be refused with ErrDegraded.
	fj.setFail(fmt.Errorf("injected I/O error"))
	if _, err := m.FeedbackAt(context.Background(), id, 1, choice); !errors.Is(err, ErrDegraded) {
		t.Fatalf("feedback during EIO: want ErrDegraded, got %v", err)
	}
	stats := m.Stats()
	if stats.WALAppendErrors == 0 {
		t.Error("append error not counted in WALAppendErrors")
	}
	if !stats.Degraded || stats.DegradedEntered == 0 {
		t.Errorf("manager not degraded after append failure: %+v", stats)
	}
	// Reads still work in degraded mode.
	if _, err := m.Get(id); err != nil {
		t.Fatalf("get during degraded mode: %v", err)
	}
	// Health reflects the unusable journal, so a router fences this worker.
	if hs := m.Health(); hs.OK || !hs.Degraded {
		t.Fatalf("health during degraded mode: %+v", hs)
	}
	// While the fault persists, retries keep being refused.
	if _, err := m.FeedbackAt(context.Background(), id, 1, choice); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second feedback during EIO: want ErrDegraded, got %v", err)
	}

	// Fault clears; the client retries the SAME seq. Exactly-once: the
	// stashed records are journaled and the round acknowledged without
	// stepping the engine again.
	fj.setFail(nil)
	st2, err := m.FeedbackAt(context.Background(), id, 1, choice)
	if err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	if !st2.Done() && (st2.Round == nil || st2.Round.Seq != 2) {
		t.Fatalf("retry did not advance exactly one round: %+v", st2)
	}
	stats = m.Stats()
	if stats.Degraded || stats.DegradedRecovered == 0 {
		t.Errorf("manager did not auto-recover: %+v", stats)
	}
	if hs := m.Health(); !hs.OK || hs.Degraded {
		t.Fatalf("health after recovery: %+v", hs)
	}
	// A further retry of the absorbed seq stays idempotent.
	st3, err := m.FeedbackAt(context.Background(), id, 1, choice)
	if err != nil || !statusEqual(st2, st3) {
		t.Fatalf("idempotent retry after recovery: %+v %v", st3, err)
	}

	// The WAL holds the acknowledged round exactly once.
	seq1 := 0
	for _, rec := range collectRecords(t, walDir) {
		if rec.Type == wal.TypeFeedback && rec.ID == id && rec.Seq == 1 {
			seq1++
		}
	}
	if seq1 != 1 {
		t.Fatalf("WAL holds seq-1 feedback %d times, want exactly once", seq1)
	}

	// Finish the session and prove the log the fault plane left behind
	// recovers to the reference outcome.
	if got := outcomeFingerprint(driveToOutcome(t, m, id, oracle)); got != want {
		t.Fatalf("outcome through fault differs:\n  got  %s\n  want %s", got, want)
	}
	m2 := New(testOptions())
	if _, err := m2.Recover("", walDir); err != nil {
		t.Fatal(err)
	}
	st4, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st4.Done() {
		t.Fatalf("recovered session not finished: %+v", st4)
	}
	if got := outcomeFingerprint(st4.Outcome); got != want {
		t.Fatalf("recovered outcome differs:\n  got  %s\n  want %s", got, want)
	}
}

// TestCreateRefusedWhileDegraded pins create's degraded behaviour: a failed
// create-journal append refuses the session outright (nothing half-made
// survives) and the manager recovers once the journal heals.
func TestCreateRefusedWhileDegraded(t *testing.T) {
	d, r := employeeDB()
	qc := paperCandidates()
	walDir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fj := &flakyJournal{inner: l, fail: fmt.Errorf("injected ENOSPC: no space left on device")}
	opts := testOptions()
	opts.Journal = fj
	m := New(opts)

	if _, err := m.Create(d, r, qc); !errors.Is(err, ErrDegraded) {
		t.Fatalf("create during ENOSPC: want ErrDegraded, got %v", err)
	}
	if m.Resident() != 0 {
		t.Fatalf("refused create left %d resident session(s)", m.Resident())
	}

	fj.setFail(nil)
	st, err := m.Create(d, r, qc)
	if err != nil {
		t.Fatalf("create after window: %v", err)
	}
	if _, err := m.FeedbackAt(context.Background(), st.ID, 1, 0); err != nil {
		t.Fatalf("feedback after recovery: %v", err)
	}
	if stats := m.Stats(); stats.Degraded {
		t.Errorf("still degraded after successful create+feedback: %+v", stats)
	}
}
