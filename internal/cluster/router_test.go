package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/service"
	"qfe/internal/wal"
)

// testWorker is one in-process qfe-server: a real Manager with a real WAL,
// behind an httptest server whose Close() plays the part of SIGKILL (the
// manager's memory survives but becomes unreachable; only its on-disk
// estate matters to the cluster from then on).
type testWorker struct {
	def     Worker
	manager *service.Manager
	srv     *httptest.Server
}

func newTestWorker(t *testing.T, id string) *testWorker {
	t.Helper()
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")
	journal, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := core.DefaultConfig()
	// Deterministic generator budget: WAL replay on the adopter must rebuild
	// the same rounds the dead worker acknowledged.
	cfg.Gen.Budget.MaxPairs = 100000
	cfg.Gen.Budget.MaxDuration = 0
	m := service.New(service.Options{Config: cfg, Journal: journal})
	srv := httptest.NewServer(service.NewHandler(m, service.HandlerOptions{
		EnableAdmin: true,
		StatePath:   statePath,
	}))
	t.Cleanup(srv.Close)
	return &testWorker{
		def:     Worker{ID: id, URL: srv.URL, StatePath: statePath, WALDir: walDir},
		manager: m,
		srv:     srv,
	}
}

// clusterFixture is a 3-worker cluster behind a router, with the router
// itself also served over HTTP so the test exercises the full proxy path.
type clusterFixture struct {
	workers map[string]*testWorker
	rt      *Router
	front   *httptest.Server
}

func newClusterFixture(t *testing.T, n int) *clusterFixture {
	t.Helper()
	f := &clusterFixture{workers: map[string]*testWorker{}}
	var defs []Worker
	for i := 0; i < n; i++ {
		w := newTestWorker(t, fmt.Sprintf("w%d", i))
		f.workers[w.def.ID] = w
		defs = append(defs, w.def)
	}
	rt, err := NewRouter(Options{
		Workers:     defs,
		DeadAfter:   2,
		RetryBudget: 30 * time.Second,
		CallTimeout: 30 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	f.rt = rt
	f.front = httptest.NewServer(rt)
	t.Cleanup(f.front.Close)
	return f
}

// do issues one JSON request against the router front-end.
func (f *clusterFixture) do(t *testing.T, method, path string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, f.front.URL+path, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var fields map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, fields
}

// sessionView is the slice of SessionJSON the tests compare.
type sessionView struct {
	id   string
	done bool
	seq  int
}

func parseSession(t *testing.T, fields map[string]json.RawMessage) sessionView {
	t.Helper()
	var v sessionView
	if err := json.Unmarshal(fields["id"], &v.id); err != nil {
		t.Fatalf("session has no id: %v (%s)", err, fields["error"])
	}
	if raw, ok := fields["done"]; ok {
		json.Unmarshal(raw, &v.done)
	}
	if raw, ok := fields["round"]; ok && string(raw) != "null" {
		var round struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal(raw, &round); err != nil {
			t.Fatalf("bad round: %v", err)
		}
		v.seq = round.Seq
	}
	return v
}

// homeOf resolves a session's current worker through the router's ring.
func (f *clusterFixture) homeOf(t *testing.T, id string) string {
	t.Helper()
	ws, err := f.rt.resolve(id, false)
	if err != nil {
		t.Fatalf("resolve(%s): %v", id, err)
	}
	return ws.w.ID
}

// TestRouterFailoverPreservesAcknowledgedSessions is the tentpole's core
// correctness test: create sessions across the cluster, acknowledge one
// feedback round each, kill a worker, and require (a) sessions on the
// survivors stay available during the outage — the availability acceptance
// criterion — and (b) after failover, every session the dead worker owned
// is served by a survivor with all acknowledged progress intact and can
// continue.
func TestRouterFailoverPreservesAcknowledgedSessions(t *testing.T) {
	f := newClusterFixture(t, 3)

	// Create sessions until every worker owns at least two.
	perWorker := map[string][]sessionView{}
	for i := 0; i < 64; i++ {
		short := 0
		for _, w := range f.rt.opts.Workers {
			if len(perWorker[w.ID]) < 2 {
				short++
			}
		}
		if short == 0 {
			break
		}
		status, fields := f.do(t, http.MethodPost, "/sessions", map[string]string{"dataset": "demo"})
		if status != http.StatusCreated {
			t.Fatalf("create %d: status %d (%s)", i, status, fields["error"])
		}
		v := parseSession(t, fields)
		if v.seq == 0 && !v.done {
			t.Fatalf("create %d: no first round in response", i)
		}
		perWorker[f.homeOf(t, v.id)] = append(perWorker[f.homeOf(t, v.id)], v)
	}
	for _, w := range f.rt.opts.Workers {
		if len(perWorker[w.ID]) < 2 {
			t.Fatalf("worker %s owns %d sessions; placement badly skewed", w.ID, len(perWorker[w.ID]))
		}
	}

	// Acknowledge one feedback round per session; the recorded post-feedback
	// view is the state that must survive the crash.
	acked := map[string]sessionView{}
	for home, views := range perWorker {
		for _, v := range views {
			status, fields := f.do(t, http.MethodPost, "/sessions/"+v.id+"/feedback",
				map[string]int{"choice": 0, "seq": v.seq})
			if status != http.StatusOK {
				t.Fatalf("feedback %s (home %s): status %d (%s)", v.id, home, status, fields["error"])
			}
			acked[v.id] = parseSession(t, fields)
		}
	}

	// SIGKILL stand-in: the victim's listener dies; its WAL stays on disk.
	victim := "w1"
	f.workers[victim].srv.Close()

	// Availability under partial failure: sessions homed on the survivors
	// answer immediately while the victim is down and not yet failed over.
	for home, views := range perWorker {
		if home == victim {
			continue
		}
		for _, v := range views {
			status, fields := f.do(t, http.MethodGet, "/sessions/"+v.id, nil)
			if status != http.StatusOK {
				t.Fatalf("survivor session %s (home %s) unavailable during outage: %d (%s)",
					v.id, home, status, fields["error"])
			}
		}
	}

	// Drive the failure detector to a verdict, then wait for the handoff.
	for i := 0; i < 2; i++ {
		f.rt.monitor.Tick()
	}
	if got := f.rt.monitor.State(victim); got != StateDead {
		t.Fatalf("victim state %v after DeadAfter ticks, want dead", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for f.rt.failoversDone.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("failover did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every session — including the victim's — must now be served with its
	// acknowledged progress intact.
	for id, want := range acked {
		status, fields := f.do(t, http.MethodGet, "/sessions/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("post-failover GET %s: status %d (%s)", id, status, fields["error"])
		}
		got := parseSession(t, fields)
		if got.done != want.done || got.seq != want.seq {
			t.Fatalf("session %s lost acknowledged state: got done=%v seq=%d, want done=%v seq=%d",
				id, got.done, got.seq, want.done, want.seq)
		}
		if home := f.homeOf(t, id); home == victim {
			t.Fatalf("session %s still routes to the dead worker", id)
		}
	}

	// And the adopted sessions keep working: push one further feedback round
	// on a session the victim used to own.
	for _, v := range perWorker[victim] {
		cur := acked[v.id]
		if cur.done {
			continue
		}
		status, fields := f.do(t, http.MethodPost, "/sessions/"+v.id+"/feedback",
			map[string]int{"choice": 0, "seq": cur.seq})
		if status != http.StatusOK {
			t.Fatalf("post-failover feedback %s: status %d (%s)", v.id, status, fields["error"])
		}
		next := parseSession(t, fields)
		if !next.done && next.seq <= cur.seq {
			t.Fatalf("post-failover feedback %s did not advance: seq %d -> %d", v.id, cur.seq, next.seq)
		}
		break
	}

	if got := f.rt.counters.failovers.Load(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}

	// The router's own health and stats surfaces reflect the new topology.
	status, fields := f.do(t, http.MethodGet, "/cluster/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("/cluster/stats: %d", status)
	}
	var estates []Estate
	json.Unmarshal(fields["estates"], &estates)
	if len(estates) != 1 || estates[0].Node != victim {
		t.Fatalf("estates = %+v, want exactly the victim's", estates)
	}
	status, fields = f.do(t, http.MethodGet, "/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("router /healthz after failover: %d (%s)", status, fields["error"])
	}
	var live int
	json.Unmarshal(fields["live"], &live)
	if live != 2 {
		t.Fatalf("router reports %d live workers, want 2", live)
	}
}

// TestRouterCreateGeneratesUniqueRoutableIDs: the router names sessions
// itself, every id is fresh, and a client-chosen id is honored.
func TestRouterCreateRouting(t *testing.T) {
	f := newClusterFixture(t, 3)
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		status, fields := f.do(t, http.MethodPost, "/sessions", map[string]string{"dataset": "demo"})
		if status != http.StatusCreated {
			t.Fatalf("create: status %d (%s)", status, fields["error"])
		}
		v := parseSession(t, fields)
		if seen[v.id] {
			t.Fatalf("duplicate generated id %s", v.id)
		}
		seen[v.id] = true
	}

	// Client-supplied id: honored, and a retry of the same create is served
	// idempotently rather than erroring.
	body := map[string]string{"dataset": "demo", "sessionID": "retry-me"}
	status, fields := f.do(t, http.MethodPost, "/sessions", body)
	if status != http.StatusCreated {
		t.Fatalf("named create: status %d (%s)", status, fields["error"])
	}
	first := parseSession(t, fields)
	if first.id != "retry-me" {
		t.Fatalf("named create id = %s, want retry-me", first.id)
	}
	status, fields = f.do(t, http.MethodPost, "/sessions", body)
	if status != http.StatusCreated {
		t.Fatalf("replayed create: status %d (%s)", status, fields["error"])
	}
	if again := parseSession(t, fields); again.id != first.id || again.seq != first.seq {
		t.Fatalf("replayed create diverged: %+v vs %+v", again, first)
	}
}

// TestRouterShedsAtInflightCap: a worker at its in-flight cap sheds with
// 503 + Retry-After instead of queueing.
func TestRouterShedsAtInflightCap(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	// Unblock the slow handler before the deferred server Closes run (defers
	// precede t.Cleanup), so shutdown does not wait out its grace period.
	defer close(release)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		entered <- struct{}{}
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"x","done":false}`)
	}))
	t.Cleanup(slow.Close)

	rt, err := NewRouter(Options{
		Workers:     []Worker{{ID: "w0", URL: slow.URL}},
		MaxInflight: 1,
		RetryBudget: 5 * time.Second,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	go func() { // occupies the single slot until release closes
		resp, err := http.Get(front.URL + "/sessions/x")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := http.Get(front.URL + "/sessions/y")
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("at cap: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := rt.counters.shed.Load(); got < 1 {
		t.Fatalf("shed counter = %d, want >= 1", got)
	}
}
