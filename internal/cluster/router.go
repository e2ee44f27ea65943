package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfe/internal/obs"
	"qfe/internal/retry"
)

// Worker is one qfe-server node the router places sessions on. StatePath
// and WALDir name the node's durable estate on storage the other workers
// can reach; they are what survives the node and gets handed off when the
// health monitor declares it dead.
type Worker struct {
	ID        string `json:"id"`
	URL       string `json:"url"` // base URL, e.g. http://127.0.0.1:9001
	StatePath string `json:"statePath,omitempty"`
	WALDir    string `json:"walDir,omitempty"`
}

// Estate is a dead worker's durable remains: the snapshot + WAL the
// survivors rebuild its sessions from. Estates stay on the router's
// outstanding list forever (death is terminal), so every later failover
// re-broadcasts them — the chained-failure guarantee that an adopter dying
// mid-handoff never strands acknowledged state.
type Estate struct {
	Node      string `json:"node"`
	StatePath string `json:"statePath,omitempty"`
	WALDir    string `json:"walDir,omitempty"`
}

// Options configures a Router. Zero values select defaults.
type Options struct {
	Workers      []Worker
	VirtualNodes int // ring points per worker (0 = 128)

	// Health detection (see MonitorOptions).
	ProbeInterval time.Duration
	DeadAfter     int
	RecoverAfter  int

	// MaxInflight caps concurrent proxied requests per worker; beyond it the
	// router sheds with 503 + Retry-After instead of queueing (0 = 64).
	MaxInflight int64
	// RetryBudget bounds how long one proxied request may spend retrying
	// through worker failures and failover fencing before the router gives
	// up with 503 (0 = 30s; must cover DeadAfter*ProbeInterval + handoff).
	RetryBudget time.Duration
	// CallTimeout bounds one proxy attempt (0 = 2m; must cover a slow round
	// generation, matching the worker's write timeout).
	CallTimeout time.Duration
	// AdoptTimeout bounds one /admin/adopt call during failover (0 = 2m;
	// adoption replays a WAL tail, which can be slow).
	AdoptTimeout time.Duration

	// BreakerThreshold is how many consecutive request-path failures trip
	// a worker's circuit breaker open (0 = 5; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses attempts
	// before admitting a half-open probe (0 = 1s).
	BreakerCooldown time.Duration

	// Client issues all upstream requests (nil = a fresh http.Client;
	// timeouts come from per-request contexts).
	Client *http.Client
	// Logf receives operational events (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = ringReplicas
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 30 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Minute
	}
	if o.AdoptTimeout <= 0 {
		o.AdoptTimeout = 2 * time.Minute
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.Client == nil {
		// Per-request deadlines (CallTimeout, AdoptTimeout, probe contexts)
		// bound every call; the shared transport bounds dial/TLS so a dead
		// peer fails fast instead of riding the OS SYN retry ladder.
		o.Client = retry.HTTPClientPerRequest()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// workerPhase is a worker's routing lifecycle. active -> fenced when the
// monitor declares it dead (its keys get 503 + Retry-After while the
// estate handoff runs); fenced -> removed once every survivor has adopted
// the estate and the worker leaves the ring (its keys then route to their
// preference-list successors, which now hold the state). There is no way
// back: a revived process rejoins as a new worker id.
type workerPhase int32

const (
	phaseActive workerPhase = iota
	phaseFenced
	phaseRemoved
)

func (p workerPhase) String() string {
	switch p {
	case phaseActive:
		return "active"
	case phaseFenced:
		return "fenced"
	case phaseRemoved:
		return "removed"
	}
	return "unknown"
}

// workerState is the router's view of one worker.
type workerState struct {
	w        Worker
	phase    atomic.Int32 // workerPhase; written under Router.mu, read anywhere
	inflight atomic.Int64
	// breaker sheds request-path failures faster than the probe-interval
	// failure detector can (nil when disabled).
	breaker *breaker
	// proxyLatency is this worker's pre-resolved attempt-latency histogram
	// (resolved once in NewRouter; the proxy path does no lookups).
	proxyLatency *obs.Histogram
}

func (ws *workerState) getPhase() workerPhase { return workerPhase(ws.phase.Load()) }

// acquire reserves an in-flight slot, failing when the worker is at cap.
func (ws *workerState) acquire(max int64) bool {
	if ws.inflight.Add(1) > max {
		ws.inflight.Add(-1)
		return false
	}
	return true
}

func (ws *workerState) release() { ws.inflight.Add(-1) }

// routerCounters are the router's cumulative operational counters.
type routerCounters struct {
	proxied        atomic.Int64 // client requests accepted for proxying
	retries        atomic.Int64 // upstream attempts beyond the first
	shed           atomic.Int64 // requests dropped at a worker's in-flight cap
	fenced         atomic.Int64 // resolutions deferred by a fenced home
	unavailable    atomic.Int64 // requests that exhausted the retry budget
	failovers      atomic.Int64 // workers declared dead
	adoptCalls     atomic.Int64 // /admin/adopt attempts issued
	adoptErrors    atomic.Int64 // adoptions that exhausted their retries
	breakerTrips   atomic.Int64 // circuit breakers tripped open
	breakerRejects atomic.Int64 // attempts refused by an open breaker
}

// CounterSnapshot is the JSON form of the router counters.
type CounterSnapshot struct {
	Proxied        int64 `json:"proxied"`
	Retries        int64 `json:"retries"`
	Shed           int64 `json:"shed"`
	Fenced         int64 `json:"fenced"`
	Unavailable    int64 `json:"unavailable"`
	Failovers      int64 `json:"failovers"`
	AdoptCalls     int64 `json:"adoptCalls"`
	AdoptErrors    int64 `json:"adoptErrors"`
	BreakerTrips   int64 `json:"breakerTrips"`
	BreakerRejects int64 `json:"breakerRejects"`
}

// Router fronts a set of qfe-server workers: it places sessions with the
// consistent-hash ring, watches worker health, proxies the session API with
// capped-backoff retries (safe end to end because creates are idempotent by
// id and feedback is idempotent by seq), sheds load at per-worker in-flight
// caps, and on a confirmed death hands the dead node's durable estate to
// the survivors before reassigning its hash range.
//
// Router endpoints, beyond the proxied session API:
//
//	GET /healthz        200 while at least one worker is routable
//	GET /cluster/stats  worker phases, outstanding estates, counters
type Router struct {
	opts    Options
	monitor *Monitor

	mu      sync.Mutex
	ring    *Ring
	workers map[string]*workerState
	estates []Estate

	counters routerCounters

	// failoversDone counts completed handoffs; tests wait on it.
	failoversDone atomic.Int64
}

// NewRouter builds a router over a static worker set. Call Start to begin
// health probing (tests drive rt.Tick instead).
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: router needs at least one worker")
	}
	rt := &Router{
		opts:    opts,
		ring:    NewRing(opts.VirtualNodes),
		workers: make(map[string]*workerState, len(opts.Workers)),
	}
	for _, w := range opts.Workers {
		if w.ID == "" || w.URL == "" {
			return nil, fmt.Errorf("cluster: worker needs id and url (got %+v)", w)
		}
		if _, dup := rt.workers[w.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker id %q", w.ID)
		}
		ws := &workerState{w: Worker{
			ID:        w.ID,
			URL:       strings.TrimRight(w.URL, "/"),
			StatePath: w.StatePath,
			WALDir:    w.WALDir,
		}}
		ws.proxyLatency = mProxyLatency.With(w.ID)
		if opts.BreakerThreshold > 0 {
			b := newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
			id := w.ID
			b.onTrip = func() {
				rt.counters.breakerTrips.Add(1)
				mBreakerTrips.Inc()
				rt.opts.Logf("cluster: breaker tripped open for worker %s (cooldown %s)", id, opts.BreakerCooldown)
			}
			ws.breaker = b
		}
		rt.workers[w.ID] = ws
		rt.ring.Add(w.ID)
	}
	rt.monitor = NewMonitor(rt.probeWorker, rt.onWorkerDead, MonitorOptions{
		Interval:     opts.ProbeInterval,
		DeadAfter:    opts.DeadAfter,
		RecoverAfter: opts.RecoverAfter,
	})
	for id := range rt.workers {
		rt.monitor.Watch(id)
	}
	return rt, nil
}

// Start launches periodic health probing.
func (rt *Router) Start() { rt.monitor.Start() }

// Stop halts health probing (in-flight failovers still complete).
func (rt *Router) Stop() { rt.monitor.Stop() }

// probeWorker is the Monitor's ProbeFunc: a bounded GET /healthz.
func (rt *Router) probeWorker(id string) error {
	rt.mu.Lock()
	ws := rt.workers[id]
	rt.mu.Unlock()
	if ws == nil {
		return fmt.Errorf("unknown worker %q", id)
	}
	timeout := rt.opts.ProbeInterval
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.w.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A 503 healthz means the worker can no longer durably acknowledge
		// (WAL failure) — as dead as a refused connection, for routing.
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// onWorkerDead runs the failover asynchronously so the probe loop keeps
// ticking (a second death during a handoff must still be detected).
func (rt *Router) onWorkerDead(id string) { go rt.failover(id) }

// failover fences a confirmed-dead worker, broadcasts every outstanding
// estate (the dead node's and all earlier ones) to every live worker, and
// only then removes the dead node from the ring so its keys reroute.
//
// Safety argument, in order:
//   - Fencing first means no request for the dead node's keys can reach a
//     successor before the successor holds the state (clients see 503 +
//     Retry-After and retry — feedback is seq-idempotent, so this is safe).
//   - Broadcasting to ALL live workers (not just ring successors) is
//     deliberate redundancy: whichever workers survive, at least one
//     routable successor for every reassigned key has adopted the estate.
//   - Adoption is merge-by-progress and re-runnable, and the estate files
//     themselves are never deleted, so an adopter dying mid-handoff costs
//     nothing: its own failover re-broadcasts the full estate list.
//   - ring.Remove happens last; from then on Lookup sends each orphaned key
//     to its preference-list successor, which has the state.
func (rt *Router) failover(dead string) {
	rt.mu.Lock()
	ws := rt.workers[dead]
	if ws == nil || ws.getPhase() != phaseActive {
		rt.mu.Unlock()
		return
	}
	rt.counters.failovers.Add(1)
	mFailovers.Inc()
	ws.phase.Store(int32(phaseFenced))
	if ws.w.StatePath != "" || ws.w.WALDir != "" {
		rt.estates = append(rt.estates, Estate{Node: dead, StatePath: ws.w.StatePath, WALDir: ws.w.WALDir})
	}
	estates := append([]Estate(nil), rt.estates...)
	var targets []*workerState
	for _, t := range rt.workers {
		if t.getPhase() == phaseActive {
			targets = append(targets, t)
		}
	}
	rt.mu.Unlock()

	rt.opts.Logf("cluster: worker %s dead (%v); fenced, handing %d estate(s) to %d survivor(s)",
		dead, rt.monitor.LastErr(dead), len(estates), len(targets))
	for _, t := range targets {
		for _, e := range estates {
			rt.adoptEstate(t, e)
		}
	}

	rt.mu.Lock()
	ws.phase.Store(int32(phaseRemoved))
	rt.ring.Remove(dead)
	live := rt.liveCountLocked()
	rt.mu.Unlock()
	rt.failoversDone.Add(1)
	mFailoversDone.Inc()
	rt.opts.Logf("cluster: worker %s removed from ring; %d worker(s) remain routable", dead, live)
}

// adoptEstate tells one worker to ingest one estate, retrying with backoff.
// Failure is tolerable (counted, logged): the target either died — its own
// failover re-broadcasts — or the redundant copies on the other survivors
// carry the state.
func (rt *Router) adoptEstate(t *workerState, e Estate) {
	body, _ := json.Marshal(struct {
		StatePath string `json:"statePath,omitempty"`
		WALDir    string `json:"walDir,omitempty"`
	}{e.StatePath, e.WALDir})
	pol := retry.Policy{Budget: rt.opts.RetryBudget}
	err := pol.Do(context.Background(), func() error {
		rt.counters.adoptCalls.Add(1)
		mAdoptCalls.Inc()
		ctx, cancel := context.WithTimeout(context.Background(), rt.opts.AdoptTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			t.w.URL+"/admin/adopt", bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.opts.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("adopt: worker %s status %d: %s", t.w.ID, resp.StatusCode, bytes.TrimSpace(msg))
		}
		var ar struct {
			SnapshotSessions int `json:"snapshotSessions"`
			ReplaySessions   int `json:"replaySessions"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ar); err == nil {
			rt.opts.Logf("cluster: worker %s adopted estate of %s (%d from snapshot, %d via WAL replay)",
				t.w.ID, e.Node, ar.SnapshotSessions, ar.ReplaySessions)
		}
		return nil
	})
	if err != nil {
		rt.counters.adoptErrors.Add(1)
		mAdoptErrors.Inc()
		rt.opts.Logf("cluster: worker %s failed to adopt estate of %s: %v", t.w.ID, e.Node, err)
	}
}

func (rt *Router) liveCountLocked() int {
	n := 0
	for _, ws := range rt.workers {
		if ws.getPhase() == phaseActive {
			n++
		}
	}
	return n
}

// Routing sentinels. Fenced/unroutable homes are retryable — the retry loop
// re-resolves each attempt, so once a failover completes the request lands
// on the successor.
var (
	errNoWorkers   = errors.New("no routable workers")
	errFenced      = errors.New("home worker fenced, failover in progress")
	errShed        = errors.New("worker at in-flight capacity")
	errBreakerOpen = errors.New("worker circuit breaker open")
)

// resolve picks the worker for a key. Lookups and feedback go strictly to
// the ring home (fenced home -> retryable error: serving from a successor
// before the handoff completes could read pre-adoption state). Creates may
// skip fenced workers — the session does not exist yet, and by the
// preference-list property the skip agrees with every later post-removal
// Lookup of the same key.
func (rt *Router) resolve(key string, create bool) (*workerState, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ring.Len() == 0 {
		return nil, retry.Permanent(errNoWorkers)
	}
	if create {
		for _, id := range rt.ring.LookupN(key, rt.ring.Len()) {
			if ws := rt.workers[id]; ws.getPhase() == phaseActive {
				return ws, nil
			}
		}
		rt.counters.fenced.Add(1)
		mFenced.Inc()
		return nil, errFenced
	}
	ws := rt.workers[rt.ring.Lookup(key)]
	if ws.getPhase() != phaseActive {
		rt.counters.fenced.Add(1)
		mFenced.Inc()
		return nil, errFenced
	}
	return ws, nil
}

// ServeHTTP proxies the qfe-server session API and serves the router's own
// health and stats endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		rt.healthz(w, r)
	case r.URL.Path == "/metrics":
		obs.Handler().ServeHTTP(w, r)
	case r.URL.Path == "/cluster/stats":
		rt.clusterStats(w, r)
	case r.URL.Path == "/sessions":
		rt.create(w, r)
	case strings.HasPrefix(r.URL.Path, "/sessions/"):
		rt.session(w, r)
	default:
		writeJSONR(w, http.StatusNotFound, map[string]string{"error": "not found"})
	}
}

// newSessionID draws a 128-bit random id. The router names sessions so that
// placement is a pure hash of the id — no placement table to persist, and a
// restarted router routes identically.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// create handles POST /sessions: inject a session id into the body (unless
// the client named one), route by its hash, proxy with retries. Retried or
// duplicated creates are safe: workers treat create-by-existing-id as a
// read of that session's current status.
func (rt *Router) create(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONR(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST /sessions"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONR(w, status, map[string]string{"error": err.Error()})
		return
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		writeJSONR(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	var id string
	if rawID, ok := fields["sessionID"]; ok {
		_ = json.Unmarshal(rawID, &id)
	}
	if id == "" {
		id = newSessionID()
		fields["sessionID"], _ = json.Marshal(id)
		if raw, err = json.Marshal(fields); err != nil {
			writeJSONR(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	rt.proxy(w, r, id, true, http.MethodPost, "/sessions", raw)
}

// session handles /sessions/{id}[/feedback] by strict-home proxying.
func (rt *Router) session(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "feedback") {
		writeJSONR(w, http.StatusNotFound, map[string]string{"error": "not found"})
		return
	}
	var body []byte
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSONR(w, status, map[string]string{"error": err.Error()})
			return
		}
	}
	rt.proxy(w, r, id, false, r.Method, r.URL.Path, body)
}

// bufferedResp is one upstream response, buffered so retries can discard
// failed attempts and the final answer is relayed whole.
type bufferedResp struct {
	status      int
	contentType string
	body        []byte
}

// proxy forwards one request to the key's worker, retrying with capped
// exponential backoff + full jitter through worker failures and failover
// fencing. Worker 503s are treated as transient (the worker may be dying —
// the route re-resolves next attempt); every other status, including
// application errors, passes through to the client.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, key string, create bool, method, path string, body []byte) {
	rt.counters.proxied.Add(1)
	mProxied.Inc()
	var out *bufferedResp
	pol := retry.Policy{
		Budget: rt.opts.RetryBudget,
		OnRetry: func(int, error, time.Duration) {
			rt.counters.retries.Add(1)
			mRetries.Inc()
		},
	}
	err := pol.Do(r.Context(), func() error {
		ws, err := rt.resolve(key, create)
		if err != nil {
			return err
		}
		if ws.breaker != nil && !ws.breaker.Allow() {
			// Short-circuit without burning a transport timeout. Retryable:
			// the loop backs off and re-resolves, so by the next attempt the
			// breaker may be half-open or the worker fenced and failed over.
			rt.counters.breakerRejects.Add(1)
			mBreakerRejects.Inc()
			return fmt.Errorf("worker %s: %w", ws.w.ID, errBreakerOpen)
		}
		if !ws.acquire(rt.opts.MaxInflight) {
			// Shed immediately rather than queue: under overload, fast 503s
			// with Retry-After keep latency bounded and let clients back off.
			rt.counters.shed.Add(1)
			mShed.Inc()
			return retry.Permanent(errShed)
		}
		defer ws.release()
		t0 := time.Now()
		resp, err := rt.attempt(r.Context(), ws, method, path, body)
		ws.proxyLatency.ObserveDuration(time.Since(t0))
		if err != nil {
			// Transport-level failure: the worker never answered. Feed the
			// breaker unless the client itself gave up (its canceled context
			// says nothing about the worker's health).
			if ws.breaker != nil && r.Context().Err() == nil {
				ws.breaker.Failure()
			}
			return err
		}
		if resp.status == http.StatusServiceUnavailable {
			// The worker answered but cannot serve (degraded WAL, shutting
			// down). Counts against the breaker: a degraded worker should
			// shed at request speed, not per-attempt timeout speed.
			if ws.breaker != nil {
				ws.breaker.Failure()
			}
			return fmt.Errorf("worker %s unavailable", ws.w.ID)
		}
		if ws.breaker != nil {
			ws.breaker.Success()
		}
		out = resp
		return nil
	})
	if err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", "1")
			writeJSONR(w, http.StatusServiceUnavailable, map[string]string{"error": errShed.Error()})
			return
		}
		rt.counters.unavailable.Add(1)
		mUnavailable.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSONR(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if out.contentType != "" {
		w.Header().Set("Content-Type", out.contentType)
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// attempt issues one upstream call and buffers the response.
func (rt *Router) attempt(ctx context.Context, ws *workerState, method, path string, body []byte) (*bufferedResp, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.CallTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ws.w.URL+path, rd)
	if err != nil {
		return nil, retry.Permanent(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the request id minted at the router's front door so the
	// worker's structured logs carry the same id as the router's.
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	return &bufferedResp{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        buf,
	}, nil
}

// healthz reports router health: 200 while at least one worker is routable.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	live := rt.liveCountLocked()
	total := len(rt.workers)
	rt.mu.Unlock()
	status := http.StatusOK
	if live == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSONR(w, status, map[string]any{"ok": live > 0, "live": live, "workers": total})
}

// WorkerInfo is one worker's row in /cluster/stats.
type WorkerInfo struct {
	ID           string          `json:"id"`
	URL          string          `json:"url"`
	Phase        string          `json:"phase"`
	Health       string          `json:"health"`
	Inflight     int64           `json:"inflight"`
	Breaker      string          `json:"breaker,omitempty"` // closed / open / half-open
	BreakerTrips int64           `json:"breakerTrips,omitempty"`
	Stats        json.RawMessage `json:"stats,omitempty"` // live worker's /stats, when reachable
}

// ClusterStats is the GET /cluster/stats payload.
type ClusterStats struct {
	Build         obs.Build       `json:"build"`
	UptimeSeconds float64         `json:"uptimeSeconds"`
	Live          int             `json:"live"`
	Workers       []WorkerInfo    `json:"workers"`
	Estates       []Estate        `json:"estates,omitempty"`
	Counters      CounterSnapshot `json:"counters"`
}

// clusterStats reports worker phases, outstanding estates, and counters,
// enriching live workers with their own /stats (best-effort, bounded).
func (rt *Router) clusterStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.workers))
	for id := range rt.workers {
		ids = append(ids, id)
	}
	states := make(map[string]*workerState, len(ids))
	for id, ws := range rt.workers {
		states[id] = ws
	}
	estates := append([]Estate(nil), rt.estates...)
	live := rt.liveCountLocked()
	rt.mu.Unlock()

	out := ClusterStats{
		Build:         obs.BuildInfo(),
		UptimeSeconds: obs.Uptime().Seconds(),
		Live:          live,
		Estates:       estates,
		Counters: CounterSnapshot{
			Proxied:        rt.counters.proxied.Load(),
			Retries:        rt.counters.retries.Load(),
			Shed:           rt.counters.shed.Load(),
			Fenced:         rt.counters.fenced.Load(),
			Unavailable:    rt.counters.unavailable.Load(),
			Failovers:      rt.counters.failovers.Load(),
			AdoptCalls:     rt.counters.adoptCalls.Load(),
			AdoptErrors:    rt.counters.adoptErrors.Load(),
			BreakerTrips:   rt.counters.breakerTrips.Load(),
			BreakerRejects: rt.counters.breakerRejects.Load(),
		},
	}
	infos := make([]WorkerInfo, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		ws := states[id]
		infos[i] = WorkerInfo{
			ID:       id,
			URL:      ws.w.URL,
			Phase:    ws.getPhase().String(),
			Health:   rt.monitor.State(id).String(),
			Inflight: ws.inflight.Load(),
		}
		if ws.breaker != nil {
			st, trips := ws.breaker.State()
			infos[i].Breaker = st.String()
			infos[i].BreakerTrips = trips
		}
		if ws.getPhase() != phaseActive {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/stats", nil)
			if err != nil {
				return
			}
			resp, err := rt.opts.Client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			buf, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if err == nil && json.Valid(buf) {
				infos[i].Stats = buf
			}
		}(i, ws.w.URL)
	}
	wg.Wait()
	// Deterministic order for humans and tests.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	out.Workers = infos
	writeJSONR(w, http.StatusOK, out)
}

// writeJSONR mirrors the service tier's JSON writer without importing it
// (the cluster package stays decoupled from the engine).
func writeJSONR(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
