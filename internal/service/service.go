// Package service turns the pausable core.Session state machine into a
// concurrent, long-lived session manager — the layer that serves many users
// who are each mid-winnowing-round, the workload interactive QBE systems are
// built around.
//
// The Manager owns a registry of sessions keyed by opaque IDs. Each session
// is stepped under its own mutex (core.Session is not concurrency-safe), so
// concurrent feedback for different sessions proceeds in parallel while
// concurrent requests for one session serialize. Idle sessions are evicted
// after a TTL; a global live-session cap applies backpressure (Create
// returns ErrCapacity) instead of letting memory grow unboundedly. Sessions
// survive process restarts: Checkpoint serializes every resident session
// through the internal/codec JSON snapshot format and Load restores them.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/obs"
	"qfe/internal/relation"
	"qfe/internal/wal"
)

// Errors returned by the manager. HTTP front-ends map these to status codes
// (404, 429, 409, 500, 503).
var (
	ErrNotFound = errors.New("service: no such session")
	ErrCapacity = errors.New("service: session capacity reached, retry later")
	// ErrDead wraps a fatal engine error inside a session: the session is
	// unusable and the fault is the server's, not the client's.
	ErrDead = errors.New("service: session failed")
	// ErrSeqAhead reports a feedback request for a round the session has not
	// produced: the client knows more than the server, which after a crash
	// means acknowledged state was lost (the chaos harness's detector).
	ErrSeqAhead = errors.New("service: feedback seq ahead of session state")
	// ErrDegraded reports the manager in degraded read-only mode: the journal
	// stopped accepting appends, so mutations cannot be durably acknowledged.
	// HTTP maps it to 503 + Retry-After; reads keep working, and the manager
	// auto-recovers as soon as Journal.Ping succeeds again.
	ErrDegraded = errors.New("service: journal unavailable, read-only (degraded) mode")
)

// Journal is the write-ahead log the Manager acknowledges against. *wal.Log
// implements it directly; internal/fault wraps one to script storage
// failures. The method set is exactly what the manager uses: append-before-
// ack, the health probe, and the checkpoint rotation pair.
type Journal interface {
	Append(recs ...wal.Record) error
	Ping() error
	Rotate() (uint64, error)
	TruncateBefore(boundary uint64) error
}

// Options tunes a Manager. Zero values select defaults.
type Options struct {
	// TTL evicts sessions idle for longer. 0 selects 30 minutes.
	TTL time.Duration
	// MaxSessions caps concurrently live (unfinished) sessions; Create
	// applies backpressure beyond it. 0 selects 1024.
	MaxSessions int
	// Config is the core configuration given to new sessions.
	Config core.Config
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time
	// Journal, when set, is the write-ahead log: every session lifecycle
	// transition is appended (and synced per the log's policy) before it is
	// acknowledged to the client, so Recover can rebuild sessions lost to a
	// crash by deterministic replay (DESIGN.md §11). For replay to reproduce
	// rounds byte-identically, Config must be deterministic — a pair-count
	// generator budget, not a wall-clock one. Assign only a non-nil journal:
	// a typed-nil *wal.Log in the interface would defeat the nil checks.
	Journal Journal
}

// Manager is a concurrent registry of winnowing sessions. All methods are
// safe for concurrent use.
type Manager struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*managed

	started      atomic.Uint64
	finished     atomic.Uint64
	evicted      atomic.Uint64
	abandoned    atomic.Uint64
	roundsServed atomic.Uint64

	// Recovery counters (see Recover): sessions restored from the snapshot,
	// sessions rebuilt or advanced by WAL replay, WAL records applied, and
	// the wall time the last recovery took.
	restored        atomic.Uint64
	replayed        atomic.Uint64
	recordsReplayed atomic.Uint64
	recoveryNs      atomic.Int64

	// Degraded (read-only) mode: set on any journal-append failure, cleared
	// when a Journal.Ping succeeds again (checked on every gated mutation
	// and every Health probe). While set, mutations fail with ErrDegraded
	// and /healthz reports not-OK so the cluster router fences the node.
	degraded          atomic.Bool
	degradedSinceNs   atomic.Int64
	degradedEntered   atomic.Uint64
	degradedRecovered atomic.Uint64
	lastDegradedNs    atomic.Int64 // duration of the last completed degraded episode
	walAppendErrors   atomic.Uint64
}

// enterDegraded flips the manager read-only (idempotent).
func (m *Manager) enterDegraded() {
	if !m.degraded.Swap(true) {
		m.degradedSinceNs.Store(m.nowNs())
		m.degradedEntered.Add(1)
		mDegradedEntered.Inc()
	}
}

// exitDegraded restores read-write mode (idempotent) and records how long
// the episode lasted.
func (m *Manager) exitDegraded() {
	if m.degraded.Swap(false) {
		m.lastDegradedNs.Store(m.nowNs() - m.degradedSinceNs.Load())
		m.degradedRecovered.Add(1)
		mDegradedRecovered.Inc()
	}
}

// noteAppendError counts a journal-append failure and trips degraded mode —
// the shared sink for every append path, best-effort ones included.
func (m *Manager) noteAppendError() {
	m.walAppendErrors.Add(1)
	mWALAppendErrors.Inc()
	m.enterDegraded()
}

// checkWritable gates mutations while degraded: it re-probes the journal so
// the first write after the fault clears flips the manager back to
// read-write (auto-recovery does not wait for a health probe).
func (m *Manager) checkWritable() error {
	if !m.degraded.Load() {
		return nil
	}
	if m.opts.Journal == nil {
		m.exitDegraded()
		return nil
	}
	if err := m.opts.Journal.Ping(); err != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	m.exitDegraded()
	return nil
}

// sessLock is a context-aware mutex guarding one session's stepping. Lock
// behaves like sync.Mutex; LockCtx gives up when the caller's context ends,
// so a request whose client is gone stops queueing behind a busy session
// instead of pinning a server slot for the full write timeout. The zero
// value is unusable — construct with newSessLock.
type sessLock struct{ ch chan struct{} }

func newSessLock() sessLock { return sessLock{ch: make(chan struct{}, 1)} }

func (l sessLock) Lock()   { l.ch <- struct{}{} }
func (l sessLock) Unlock() { <-l.ch }

// LockCtx acquires the lock or returns the context's error, preferring the
// lock when both are immediately available.
func (l sessLock) LockCtx(ctx context.Context) error {
	select {
	case l.ch <- struct{}{}:
		return nil
	default:
	}
	select {
	case l.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// managed wraps one session with its serialization lock and bookkeeping.
// The manager's map lock is never held while a session steps, so slow
// rounds in one session cannot stall the others.
type managed struct {
	mu      sessLock
	id      string
	sess    *core.Session
	round   *core.Round
	outcome *core.Outcome
	dead    error // fatal stepping error; session unusable
	// unjournaled holds accepted transitions whose journal append failed:
	// the in-memory state has advanced but the client was told the write
	// failed (503). They are prepended to the session's next append — in
	// particular by the seq-idempotent retry path, which must not
	// re-acknowledge a transition that never became durable.
	unjournaled []wal.Record
	// done mirrors "outcome or dead is set" for lock-free reads by the
	// manager's capacity accounting (those fields are h.mu-guarded).
	done     atomic.Bool
	created  time.Time
	lastUsed time.Time // guarded by the manager's mu, not h.mu
}

// New creates a Manager.
func New(opts Options) *Manager {
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Minute
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 1024
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Manager{opts: opts, sessions: make(map[string]*managed)}
}

// Status is a point-in-time public view of one session.
type Status struct {
	ID string
	// Round is the pending feedback round, nil once the session finished.
	Round *core.Round
	// Outcome is the final result, nil while the session is live.
	Outcome *core.Outcome
	Created time.Time
}

// Done reports whether the session has reached its outcome.
func (s Status) Done() bool { return s.Outcome != nil }

func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: id generation: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// CreateWithID registers a new session over (D, R, QC) under a
// caller-chosen id, using the manager's default config, starts it, and
// returns its first status. When the live-session cap is reached (after
// evicting expired sessions) it returns ErrCapacity — the backpressure
// signal. The caller-chosen id is the cluster router's placement
// primitive: the router generates the id, hashes it onto the
// consistent-hash ring, and sends the create to the id's home worker.
// Creating an id that already exists returns the existing session's current
// status instead of an error, which makes a retried create (whose first
// acknowledgement was lost to a crash or dropped connection) idempotent.
// ctx bounds the whole call: lock waits and the engine start are abandoned
// once the client's deadline passes.
func (m *Manager) CreateWithID(ctx context.Context, id string, d *db.Database, r *relation.Relation, qc []*algebra.Query) (Status, error) {
	if id == "" {
		return Status{}, errors.New("service: empty session id")
	}
	// Idempotency fast path: a retried create finds the first attempt's
	// session. Checked before the (expensive) engine start.
	m.mu.Lock()
	if prev, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		if err := prev.mu.LockCtx(ctx); err != nil {
			return Status{}, err
		}
		defer prev.mu.Unlock()
		if prev.dead != nil {
			return Status{}, prev.dead
		}
		if err := m.flushUnjournaledLocked(prev); err != nil {
			return Status{}, err
		}
		return m.statusLocked(prev), nil
	}
	m.mu.Unlock()

	// Degraded gate before the expensive engine start: a node that cannot
	// journal must not take on new sessions.
	if err := m.checkWritable(); err != nil {
		return Status{}, err
	}
	if err := ctx.Err(); err != nil {
		return Status{}, err
	}
	sess, err := core.NewStepSession(d, r, qc, m.opts.Config)
	if err != nil {
		return Status{}, err
	}
	now := m.opts.Clock()
	h := &managed{mu: newSessLock(), id: id, sess: sess, created: now, lastUsed: now}
	h.mu.Lock() // reserve: nobody can step until Start finishes
	defer h.mu.Unlock()

	m.mu.Lock()
	m.evictExpiredLocked(now)
	if prev, ok := m.sessions[h.id]; ok {
		// Lost a race against a concurrent create of the same id: the first
		// registration wins, this one resolves idempotently against it.
		m.mu.Unlock()
		if err := prev.mu.LockCtx(ctx); err != nil {
			return Status{}, err
		}
		defer prev.mu.Unlock()
		if prev.dead != nil {
			return Status{}, prev.dead
		}
		if err := m.flushUnjournaledLocked(prev); err != nil {
			return Status{}, err
		}
		return m.statusLocked(prev), nil
	}
	if m.liveLocked() >= m.opts.MaxSessions {
		m.mu.Unlock()
		return Status{}, ErrCapacity
	}
	m.sessions[h.id] = h
	m.mu.Unlock()
	m.started.Add(1)
	mStarted.Inc()

	round, err := sess.Start()
	if err != nil {
		m.remove(h.id)
		return Status{}, err
	}
	h.round = round
	if round == nil {
		h.outcome, _ = sess.Outcome()
		h.done.Store(true)
		m.finished.Add(1)
		mFinished.Inc()
	} else {
		m.roundsServed.Add(1)
		mRoundsServed.Inc()
	}
	// Write-ahead: the creation (with everything replay needs to rebuild
	// the session from scratch) must be durable before the client learns
	// the session exists. A session whose Start failed is never journaled —
	// replay never sees it, matching the in-memory removal above.
	if m.opts.Journal != nil {
		recs, err := m.createdRecords(h, d, r, qc, now)
		if err != nil {
			m.remove(h.id)
			return Status{}, fmt.Errorf("service: journal: %w", err)
		}
		if err := m.opts.Journal.Append(recs...); err != nil {
			// Unwound entirely: replay never sees the session and the
			// client retries the create once the node is writable again.
			m.noteAppendError()
			m.remove(h.id)
			return Status{}, fmt.Errorf("%w: create journal append: %v", ErrDegraded, err)
		}
	}
	return m.statusLocked(h), nil
}

// statusLocked builds a Status; the caller holds h.mu.
func (m *Manager) statusLocked(h *managed) Status {
	return Status{ID: h.id, Round: h.round, Outcome: h.outcome, Created: h.created}
}

// lookup fetches a session handle, refreshing its idle timer.
func (m *Manager) lookup(id string) (*managed, error) {
	now := m.opts.Clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked(now)
	h, ok := m.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	h.lastUsed = now
	return h, nil
}

// Get returns the session's current status: its pending round, or its
// outcome once finished.
func (m *Manager) Get(id string) (Status, error) {
	h, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead != nil {
		return Status{}, h.dead
	}
	return m.statusLocked(h), nil
}

// FeedbackAt applies one feedback choice (an index into the pending
// round's results, or core.NoneOfThese) to the round seq names (Round.Seq)
// and returns the next status, at most once. If the session has already
// advanced past seq — a retried request whose acknowledgement was lost to a
// crash or a dropped connection — the current status is returned without
// applying the choice again; a finished session so answers every seq up to
// its last round with its outcome. A seq beyond any round the session has
// produced returns ErrSeqAhead: the client has acknowledged state the
// server lost. A seq below 1 and an invalid choice are validation errors
// that leave the round pending. A fatal stepping error kills the session
// and is returned to this and every later caller. ctx bounds the lock wait
// and is checked once more before the engine steps.
func (m *Manager) FeedbackAt(ctx context.Context, id string, seq, choice int) (Status, error) {
	if seq < 1 {
		return Status{}, fmt.Errorf("service: feedback seq %d: want the seq of the round being answered (>= 1)", seq)
	}
	h, err := m.lookup(id)
	if err != nil {
		return Status{}, err
	}
	if err := h.mu.LockCtx(ctx); err != nil {
		return Status{}, err
	}
	defer h.mu.Unlock()
	if h.dead != nil {
		return Status{}, h.dead
	}
	switch {
	case h.round != nil && h.round.Seq == seq:
		// The pending round: apply below.
	case seq <= h.sess.Seq():
		// Already answered (possibly pre-crash, replayed from the WAL):
		// idempotent success — but only once the transition is durable.
		// Its original append may have failed, leaving it unjournaled;
		// re-acknowledging then would hand back an ack a crash could
		// still lose.
		if err := m.flushUnjournaledLocked(h); err != nil {
			return Status{}, err
		}
		return m.statusLocked(h), nil
	default:
		return Status{}, fmt.Errorf("%w: session %s: feedback for round %d, latest round is %d",
			ErrSeqAhead, id, seq, h.sess.Seq())
	}
	// Degraded gate before mutating: while the journal is down the round
	// must stay pending (503, client retries) rather than advance state we
	// cannot make durable. A successful Ping here is also the recovery
	// path — the first mutation after the fault clears reopens writes.
	if err := m.checkWritable(); err != nil {
		return Status{}, err
	}
	if err := ctx.Err(); err != nil {
		return Status{}, err
	}
	round, outcome, err := h.sess.Feedback(choice)
	if err != nil {
		if h.sess.Pending() != nil {
			// Validation error (bad choice): round still pending, retryable,
			// and never journaled — only accepted transitions are.
			return Status{}, err
		}
		h.dead = fmt.Errorf("%w: session %s: %v", ErrDead, id, err)
		h.done.Store(true)
		mDeadSessions.Inc()
		// Best-effort tombstone so recovery can skip replaying a session
		// that is known dead. Replaying without it reproduces the same
		// deterministic failure, so a lost append here is harmless.
		m.journalAppend(wal.Record{Type: wal.TypeDead, ID: id, UnixNs: m.nowNs()})
		return Status{}, h.dead
	}
	h.round = round
	if round != nil {
		m.roundsServed.Add(1)
		mRoundsServed.Inc()
	} else {
		h.outcome = outcome
		h.done.Store(true)
		m.finished.Add(1)
		mFinished.Inc()
	}
	// Write-ahead contract: the accepted transition is durable before it is
	// acknowledged. On journal failure the in-memory state has advanced but
	// the client gets 503 (no ack): the records are stashed on the handle
	// and the seq-idempotent retry flushes them before re-acknowledging, so
	// a transition is never acknowledged while undurable.
	if m.opts.Journal != nil {
		recs := append([]wal.Record{}, h.unjournaled...)
		recs = append(recs, wal.Record{Type: wal.TypeFeedback, ID: id, Seq: seq,
			Choice: choice, UnixNs: m.nowNs()})
		if h.outcome != nil {
			recs = append(recs, wal.Record{Type: wal.TypeFinished, ID: id, UnixNs: m.nowNs()})
		}
		if err := m.opts.Journal.Append(recs...); err != nil {
			h.unjournaled = recs
			m.noteAppendError()
			return Status{}, fmt.Errorf("%w: journal append: %v", ErrDegraded, err)
		}
		h.unjournaled = nil
		m.exitDegraded()
	}
	return m.statusLocked(h), nil
}

// flushUnjournaledLocked makes a handle's stashed (accepted but undurable)
// transitions durable before they can be re-acknowledged; the caller holds
// h.mu. No-op when nothing is pending.
func (m *Manager) flushUnjournaledLocked(h *managed) error {
	if len(h.unjournaled) == 0 || m.opts.Journal == nil {
		return nil
	}
	if err := m.opts.Journal.Append(h.unjournaled...); err != nil {
		m.noteAppendError()
		return fmt.Errorf("%w: journal append: %v", ErrDegraded, err)
	}
	h.unjournaled = nil
	m.exitDegraded()
	return nil
}

// Abandon removes a session (user walked away). Only live sessions count
// toward the abandoned statistic; deleting an already finished or dead
// session is a plain cleanup, not an abandonment.
func (m *Manager) Abandon(id string) error {
	m.mu.Lock()
	h, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if !h.done.Load() {
		m.abandoned.Add(1)
		mAbandoned.Inc()
	}
	m.journalAppend(wal.Record{Type: wal.TypeAbandoned, ID: id, UnixNs: m.nowNs()})
	return nil
}

// journalAppend is the best-effort append for terminal bookkeeping records
// (abandoned, dead): losing one degrades recovery to replaying a session
// that will immediately reach the same terminal state, never to wrong data.
// Failures are still not silent: they count toward walAppendErrors and trip
// degraded mode, because a journal that rejects bookkeeping records will
// reject the next acknowledgement-bearing append too.
func (m *Manager) journalAppend(recs ...wal.Record) {
	if m.opts.Journal == nil {
		return
	}
	if err := m.opts.Journal.Append(recs...); err != nil {
		m.noteAppendError()
	}
}

// nowNs is the manager clock in WAL timestamp form.
func (m *Manager) nowNs() int64 { return m.opts.Clock().UnixNano() }

// remove deletes without counting it as abandoned (failed Create).
func (m *Manager) remove(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// liveLocked counts unfinished resident sessions; caller holds m.mu.
func (m *Manager) liveLocked() int {
	n := 0
	for _, h := range m.sessions {
		if !h.done.Load() {
			n++
		}
	}
	return n
}

// evictExpiredLocked drops sessions idle past the TTL; caller holds m.mu.
// Finished and dead sessions age out the same way, so completed outcomes
// stay fetchable for one TTL window.
func (m *Manager) evictExpiredLocked(now time.Time) {
	for id, h := range m.sessions {
		if now.Sub(h.lastUsed) > m.opts.TTL {
			delete(m.sessions, id)
			m.evicted.Add(1)
			mEvicted.Inc()
		}
	}
}

// EvictExpired proactively applies the TTL (servers call this on a timer;
// it also runs inside every lookup) and returns the number of resident
// sessions remaining.
func (m *Manager) EvictExpired() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked(m.opts.Clock())
	return len(m.sessions)
}

// Stats is a snapshot of the manager's counters.
type Stats struct {
	// Build identity and process uptime (PR 9): which binary is serving, and
	// for how long — the same facts qfe_build_info / qfe_process_uptime_seconds
	// expose to scrapers.
	Build         obs.Build `json:"build"`
	UptimeSeconds float64   `json:"uptimeSeconds"`

	Resident int `json:"resident"` // sessions currently held
	Live     int `json:"live"`     // resident and unfinished

	SessionsStarted   uint64 `json:"sessionsStarted"`
	SessionsFinished  uint64 `json:"sessionsFinished"`
	SessionsEvicted   uint64 `json:"sessionsEvicted"`
	SessionsAbandoned uint64 `json:"sessionsAbandoned"`
	RoundsServed      uint64 `json:"roundsServed"`

	// Recovery counters: sessions restored from the snapshot (Load),
	// sessions rebuilt or advanced by WAL replay, WAL records applied, and
	// the wall time of the last Recover call.
	SessionsRestored   uint64 `json:"sessionsRestored"`
	SessionsReplayed   uint64 `json:"sessionsReplayed"`
	WALRecordsReplayed uint64 `json:"walRecordsReplayed"`
	RecoveryNs         int64  `json:"recoveryNs"`

	// Fault-plane counters (DESIGN.md §14): journal appends that failed,
	// whether the manager is currently read-only, how often it entered and
	// left degraded mode, and the last episode's duration.
	WALAppendErrors   uint64 `json:"walAppendErrors"`
	Degraded          bool   `json:"degraded"`
	DegradedEntered   uint64 `json:"degradedEntered"`
	DegradedRecovered uint64 `json:"degradedRecovered"`
	LastDegradedNs    int64  `json:"lastDegradedNs"`
}

// HealthStatus is the /healthz payload: whether this node can accept new
// work and durably acknowledge it. The cluster router's failure detector
// probes it; OK is false exactly when acknowledgements would be unsafe
// (the write-ahead log can no longer be written or flushed).
type HealthStatus struct {
	OK bool `json:"ok"`
	// WALWritable reports the journal accepting appends (a probe flush
	// succeeded); true when no journal is configured.
	WALWritable bool   `json:"walWritable"`
	WALError    string `json:"walError,omitempty"`
	// Degraded mirrors the manager's read-only mode: mutations are being
	// refused with 503 until the journal is writable again.
	Degraded bool `json:"degraded,omitempty"`
	// Session-count headroom: how many more live sessions fit under the cap.
	Resident    int `json:"resident"`
	Live        int `json:"live"`
	MaxSessions int `json:"maxSessions"`
	Headroom    int `json:"headroom"`
}

// Health reports the node's ability to take on and durably acknowledge
// sessions.
func (m *Manager) Health() HealthStatus {
	m.mu.Lock()
	resident := len(m.sessions)
	live := m.liveLocked()
	m.mu.Unlock()
	hs := HealthStatus{
		OK:          true,
		WALWritable: true,
		Resident:    resident,
		Live:        live,
		MaxSessions: m.opts.MaxSessions,
	}
	if hs.Headroom = m.opts.MaxSessions - live; hs.Headroom < 0 {
		hs.Headroom = 0
	}
	if m.opts.Journal != nil {
		if err := m.opts.Journal.Ping(); err != nil {
			hs.OK = false
			hs.WALWritable = false
			hs.WALError = err.Error()
			// The health probe and degraded mode agree by construction: a
			// node whose journal fails its probe goes read-only, and a
			// probe that succeeds again restores it (the router unfences
			// on the same signal).
			m.enterDegraded()
		} else {
			m.exitDegraded()
		}
	}
	hs.Degraded = m.degraded.Load()
	return hs
}

// Resident returns the number of sessions currently held — a cheap
// accessor for scrape-time gauges (no WAL probe, unlike Health).
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Live returns the number of resident, unfinished sessions.
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked()
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	resident := len(m.sessions)
	live := m.liveLocked()
	m.mu.Unlock()
	return Stats{
		Build:              obs.BuildInfo(),
		UptimeSeconds:      obs.Uptime().Seconds(),
		Resident:           resident,
		Live:               live,
		SessionsStarted:    m.started.Load(),
		SessionsFinished:   m.finished.Load(),
		SessionsEvicted:    m.evicted.Load(),
		SessionsAbandoned:  m.abandoned.Load(),
		RoundsServed:       m.roundsServed.Load(),
		SessionsRestored:   m.restored.Load(),
		SessionsReplayed:   m.replayed.Load(),
		WALRecordsReplayed: m.recordsReplayed.Load(),
		RecoveryNs:         m.recoveryNs.Load(),
		WALAppendErrors:    m.walAppendErrors.Load(),
		Degraded:           m.degraded.Load(),
		DegradedEntered:    m.degradedEntered.Load(),
		DegradedRecovered:  m.degradedRecovered.Load(),
		LastDegradedNs:     m.lastDegradedNs.Load(),
	}
}

// savedSession is one session in the persistence format.
type savedSession struct {
	ID       string         `json:"id"`
	Created  int64          `json:"createdUnixNs"`
	LastUsed int64          `json:"lastUsedUnixNs"`
	Snapshot *core.Snapshot `json:"snapshot"`
}

// savedState is the persistence envelope.
type savedState struct {
	Version  int            `json:"version"`
	Sessions []savedSession `json:"sessions"`
}

// collectState captures every resident, healthy session as a snapshot,
// reporting how many healthy sessions failed to snapshot (failed > 0 makes
// WAL truncation after a checkpoint unsafe — see Checkpoint).
func (m *Manager) collectState() (savedState, int) {
	type handleMeta struct {
		h        *managed
		lastUsed time.Time
	}
	m.mu.Lock()
	handles := make([]handleMeta, 0, len(m.sessions))
	for _, h := range m.sessions {
		handles = append(handles, handleMeta{h: h, lastUsed: h.lastUsed})
	}
	m.mu.Unlock()

	state := savedState{Version: 1}
	failed := 0
	for _, hm := range handles {
		h := hm.h
		h.mu.Lock()
		if h.dead != nil {
			h.mu.Unlock()
			continue
		}
		snap, err := h.sess.Snapshot()
		h.mu.Unlock()
		if err != nil {
			failed++
			continue
		}
		state.Sessions = append(state.Sessions, savedSession{
			ID:       h.id,
			Created:  h.created.UnixNano(),
			LastUsed: hm.lastUsed.UnixNano(),
			Snapshot: snap,
		})
	}
	return state, failed
}

// snapshotProgress extracts a snapshot's logical progress without the cost
// of restoring it: the last generated round number and whether the session
// has reached a terminal state.
func snapshotProgress(snap *core.Snapshot) (seq int, done bool) {
	if snap == nil {
		return 0, false
	}
	return snap.Seq, snap.State == "done" || snap.State == "failed" || snap.Outcome != nil
}

// progress reads a resident handle's logical progress under its lock.
// Tombstones (no engine session) report seq -1 so any real state beats them.
func (h *managed) progress() (seq int, done bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sess == nil {
		return -1, true
	}
	return h.sess.Seq(), h.done.Load()
}

// moreAdvanced orders two copies of one session by logical progress: a
// higher round seq wins; at equal seq a terminal copy beats a live one (the
// terminal copy has consumed that round's feedback). This is the merge rule
// that makes cluster estate adoption monotone — restoring an old copy of a
// session the node already holds in a fresher state is a no-op, so replayed
// or re-broadcast handoffs can never regress acknowledged state.
func moreAdvanced(incSeq int, incDone bool, curSeq int, curDone bool) bool {
	if incSeq != curSeq {
		return incSeq > curSeq
	}
	return incDone && !curDone
}

// Load restores sessions previously written by Checkpoint into the manager,
// returning how many were restored (surfaced as sessionsRestored in Stats).
// Sessions whose snapshots no longer decode are skipped and reported in
// errs. An existing session with the same ID is replaced only when the
// loaded copy is strictly more advanced (see moreAdvanced): Load merges
// states rather than overwriting, so adopting a failed-over node's estate
// cannot roll back sessions this node already serves. The live-session cap
// applies to restored sessions exactly as to created ones: when the state
// file holds more live sessions than MaxSessions allows, the idlest (oldest
// lastUsed) are evicted first and counted as evictions.
func (m *Manager) Load(r io.Reader) (int, []error) {
	var state savedState
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return 0, []error{fmt.Errorf("service: load: %w", err)}
	}
	if state.Version != 1 {
		return 0, []error{fmt.Errorf("service: load: unknown state version %d", state.Version)}
	}
	var errs []error
	n := 0
	for _, ss := range state.Sessions {
		incSeq, incDone := snapshotProgress(ss.Snapshot)
		m.mu.Lock()
		cur := m.sessions[ss.ID]
		m.mu.Unlock()
		if cur != nil {
			curSeq, curDone := cur.progress()
			if !moreAdvanced(incSeq, incDone, curSeq, curDone) {
				continue
			}
		}
		sess, err := core.Restore(ss.Snapshot, nil)
		if err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", ss.ID, err))
			continue
		}
		h := &managed{
			mu:       newSessLock(),
			id:       ss.ID,
			sess:     sess,
			created:  time.Unix(0, ss.Created),
			lastUsed: time.Unix(0, ss.LastUsed),
			round:    sess.Pending(),
		}
		if out, done := sess.Outcome(); done {
			h.outcome = out
			h.done.Store(true)
		} else if serr := sess.Err(); serr != nil {
			h.dead = fmt.Errorf("%w: session %s: %v", ErrDead, ss.ID, serr)
			h.done.Store(true)
		}
		m.mu.Lock()
		if m.sessions[ss.ID] != cur {
			// The handle changed while we were decoding (a concurrent adopt
			// installed a fresher copy): keep it — re-running Load is
			// idempotent, regressing is not.
			m.mu.Unlock()
			continue
		}
		m.sessions[ss.ID] = h
		m.mu.Unlock()
		m.restored.Add(1)
		mRestored.Inc()
		n++
	}
	m.mu.Lock()
	dropped := m.enforceCapLocked()
	m.mu.Unlock()
	if dropped > 0 {
		errs = append(errs, fmt.Errorf(
			"service: load: %d live session(s) beyond the %d-session cap evicted idlest-first",
			dropped, m.opts.MaxSessions))
	}
	return n, errs
}

// enforceCapLocked evicts idlest-first until the live-session count fits
// MaxSessions, returning how many were dropped; caller holds m.mu.
func (m *Manager) enforceCapLocked() int {
	dropped := 0
	for m.liveLocked() > m.opts.MaxSessions {
		victim := ""
		var oldest time.Time
		for id, h := range m.sessions {
			if h.done.Load() {
				continue
			}
			if victim == "" || h.lastUsed.Before(oldest) {
				victim, oldest = id, h.lastUsed
			}
		}
		if victim == "" {
			break
		}
		delete(m.sessions, victim)
		m.evicted.Add(1)
		mEvicted.Inc()
		dropped++
	}
	return dropped
}
