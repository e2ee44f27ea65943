package service

// Tests for the service-tier surface the cluster router depends on:
// idempotent create-by-id, merge-by-progress Load (adoption never regresses
// acknowledged state), the /healthz probe target, the /admin/adopt handoff
// endpoint, and request-body hardening.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"qfe/internal/wal"
)

// TestCreateWithIDIdempotent: creating an id that already exists returns
// that session's current status instead of erroring or double-creating —
// what makes routed create retries safe.
func TestCreateWithIDIdempotent(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	qc := paperCandidates()

	st1, err := m.CreateWithID(context.Background(), "dup", d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != "dup" || st1.Round == nil {
		t.Fatalf("bad first create: %+v", st1)
	}
	st2, err := m.CreateWithID(context.Background(), "dup", d, r, qc)
	if err != nil {
		t.Fatalf("replayed create errored: %v", err)
	}
	if st2.ID != st1.ID || st2.Round == nil || st2.Round.Seq != st1.Round.Seq {
		t.Fatalf("replayed create diverged: %+v vs %+v", st2, st1)
	}
	if got := m.Stats().SessionsStarted; got != 1 {
		t.Fatalf("replay counted as a new session: started = %d", got)
	}

	// The replay stays idempotent after progress: it reads the current
	// state, it does not reset the session.
	adv, err := m.FeedbackAt(context.Background(), "dup", st1.Round.Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := m.CreateWithID(context.Background(), "dup", d, r, qc)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Done() != adv.Done() || (st3.Round != nil) != (adv.Round != nil) ||
		(st3.Round != nil && st3.Round.Seq != adv.Round.Seq) {
		t.Fatalf("replay after feedback regressed: %+v vs %+v", st3, adv)
	}

	if _, err := m.CreateWithID(context.Background(), "", d, r, qc); err == nil {
		t.Fatal("empty id accepted")
	}
}

// TestLoadMergesByProgress: Load replaces a resident session only when the
// incoming copy is strictly more advanced. Estate adoption broadcasts and
// re-broadcasts snapshots freely; a stale copy arriving after the live one
// must never roll acknowledged rounds back.
func TestLoadMergesByProgress(t *testing.T) {
	d, r := employeeDB()
	m := New(testOptions())
	st, err := m.CreateWithID(context.Background(), "s1", d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	_, early := checkpointed(t, m)
	adv, err := m.FeedbackAt(context.Background(), "s1", st.Round.Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, late := checkpointed(t, m)

	// Stale copy into the manager holding the advanced session: no-op.
	if _, errs := m.Load(bytes.NewReader(early)); len(errs) > 0 {
		t.Fatalf("loading stale copy errored: %v", errs)
	}
	got, err := m.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Done() != adv.Done() || (got.Round != nil && got.Round.Seq != adv.Round.Seq) {
		t.Fatalf("stale Load regressed the session: %+v vs %+v", got, adv)
	}

	// Fresh manager: stale then advanced converges forward.
	m2 := New(testOptions())
	if _, errs := m2.Load(bytes.NewReader(early)); len(errs) > 0 {
		t.Fatalf("load early: %v", errs)
	}
	if st2, _ := m2.Get("s1"); st2.Round == nil || st2.Round.Seq != st.Round.Seq {
		t.Fatalf("early state wrong: %+v", st2)
	}
	if _, errs := m2.Load(bytes.NewReader(late)); len(errs) > 0 {
		t.Fatalf("load late: %v", errs)
	}
	got2, err := m2.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Done() != adv.Done() || (got2.Round != nil && got2.Round.Seq != adv.Round.Seq) {
		t.Fatalf("advanced Load did not win: %+v vs %+v", got2, adv)
	}
}

// TestHealthzReportsWALWritability: /healthz answers 200 while the node
// can durably acknowledge and 503 once its journal is gone — the exact
// signal the router's failure detector consumes.
func TestHealthzReportsWALWritability(t *testing.T) {
	srv, _ := newTestServer(t)
	var hs HealthStatus
	code, raw := doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, &hs)
	if code != http.StatusOK || !hs.OK || !hs.WALWritable {
		t.Fatalf("healthz without journal: %d %s", code, raw)
	}
	if hs.Headroom != hs.MaxSessions {
		t.Fatalf("idle node reports headroom %d of %d", hs.Headroom, hs.MaxSessions)
	}

	journal, err := wal.Open(wal.Options{Dir: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Journal = journal
	m := New(opts)
	jsrv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	t.Cleanup(jsrv.Close)
	if code, raw := doJSON(t, http.MethodGet, jsrv.URL+"/healthz", nil, &hs); code != http.StatusOK || !hs.WALWritable {
		t.Fatalf("healthz with live journal: %d %s", code, raw)
	}
	// A node whose journal is closed must stop advertising itself: it could
	// still compute, but it can no longer durably acknowledge.
	journal.Close()
	code, raw = doJSON(t, http.MethodGet, jsrv.URL+"/healthz", nil, &hs)
	if code != http.StatusServiceUnavailable || hs.OK || hs.WALWritable {
		t.Fatalf("healthz with closed journal: %d %s", code, raw)
	}
}

// TestAdoptEndpoint: a worker ingests a dead node's WAL estate and serves
// its sessions at their acknowledged progress; without EnableAdmin the
// endpoint does not exist.
func TestAdoptEndpoint(t *testing.T) {
	// The "dead" node: journaled sessions in its own WAL directory.
	deadDir := t.TempDir()
	deadWAL := filepath.Join(deadDir, "wal")
	journal, err := wal.Open(wal.Options{Dir: deadWAL})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Journal = journal
	dead := New(opts)
	d, r := employeeDB()
	st, err := dead.CreateWithID(context.Background(), "victim-session", d, r, paperCandidates())
	if err != nil {
		t.Fatal(err)
	}
	adv, err := dead.FeedbackAt(context.Background(), "victim-session", st.Round.Seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// The survivor: admin enabled, own state path.
	survivorState := filepath.Join(t.TempDir(), "state.json")
	survivor := New(testOptions())
	srv := httptest.NewServer(NewHandler(survivor, HandlerOptions{
		EnableAdmin: true,
		StatePath:   survivorState,
	}))
	t.Cleanup(srv.Close)

	var ar AdoptResponse
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/admin/adopt",
		AdoptRequest{WALDir: deadWAL}, &ar)
	if code != http.StatusOK {
		t.Fatalf("adopt: %d %s", code, raw)
	}
	if ar.ReplaySessions != 1 || len(ar.Errors) > 0 {
		t.Fatalf("adopt response: %+v", ar)
	}
	var got SessionJSON
	code, raw = doJSON(t, http.MethodGet, srv.URL+"/sessions/victim-session", nil, &got)
	if code != http.StatusOK {
		t.Fatalf("adopted session: %d %s", code, raw)
	}
	if got.Done != adv.Done() || (got.Round != nil && got.Round.Seq != adv.Round.Seq) {
		t.Fatalf("adopted session at wrong progress: %+v vs %+v", got, adv)
	}

	// Re-adoption is idempotent (the router retries handoffs freely).
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/admin/adopt",
		AdoptRequest{WALDir: deadWAL}, &ar); code != http.StatusOK {
		t.Fatalf("re-adopt: %d %s", code, raw)
	}
	var again SessionJSON
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/sessions/victim-session", nil, &again); code != http.StatusOK ||
		again.Done != got.Done || (again.Round != nil && again.Round.Seq != got.Round.Seq) {
		t.Fatalf("re-adoption changed the session: %+v vs %+v", again, got)
	}

	// Without EnableAdmin the endpoint is not even routed.
	plain, _ := newTestServer(t)
	if code, _ := doJSON(t, http.MethodPost, plain.URL+"/admin/adopt",
		AdoptRequest{WALDir: deadWAL}, nil); code != http.StatusNotFound {
		t.Fatalf("adopt without EnableAdmin: %d, want 404", code)
	}
}

// TestHTTPRequestHardening: oversized bodies answer 413 and invalid
// router-supplied session ids answer 400.
func TestHTTPRequestHardening(t *testing.T) {
	m := New(testOptions())
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{MaxBodyBytes: 1024}))
	t.Cleanup(srv.Close)

	big := CreateRequest{Dataset: "demo", Target: strings.Repeat("x", 4096)}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/sessions", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: %d, want 413", code)
	}
	// Under the cap the handler still works.
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, nil); code != http.StatusCreated {
		t.Fatalf("small create: %d %s", code, raw)
	}

	for _, bad := range []string{"has space", "slash/y", strings.Repeat("a", 129), "semi;colon"} {
		code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
			CreateRequest{Dataset: "demo", SessionID: bad}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("session id %q: %d %s, want 400", bad, code, raw)
		}
	}
}
