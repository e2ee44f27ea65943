package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptedServer answers the i-th request with script[i] (the last entry
// repeats) and records every request body.
type scriptedServer struct {
	mu     sync.Mutex
	script []func(w http.ResponseWriter)
	bodies []string
}

func (s *scriptedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	step := s.script[min(len(s.bodies), len(s.script)-1)]
	s.bodies = append(s.bodies, string(body))
	s.mu.Unlock()
	step(w)
}

func (s *scriptedServer) requests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bodies...)
}

func hangUp(w http.ResponseWriter) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

func reply(status int, v any) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) { writeJSON(w, status, v) }
}

func newScriptedClient(t *testing.T, script ...func(http.ResponseWriter)) (*Client, *scriptedServer) {
	t.Helper()
	s := &scriptedServer{script: script}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client(), 10*time.Second), s
}

// TestClientRetriesTransientFailures: a closed connection and a 503 are
// retried; the third attempt's 200 is the call's result.
func TestClientRetriesTransientFailures(t *testing.T) {
	c, s := newScriptedClient(t,
		hangUp,
		reply(http.StatusServiceUnavailable, apiError{Error: "degraded"}),
		reply(http.StatusOK, SessionJSON{ID: "s1", Round: &RoundJSON{Seq: 3}}),
	)
	st, err := c.Feedback(context.Background(), "s1", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "s1" || st.Round == nil || st.Round.Seq != 3 {
		t.Fatalf("decoded status %+v", st)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("Retries() = %d, want 2", got)
	}
	reqs := s.requests()
	if len(reqs) != 3 {
		t.Fatalf("%d requests, want 3", len(reqs))
	}
	for i, body := range reqs {
		var fr FeedbackRequest
		if err := json.Unmarshal([]byte(body), &fr); err != nil || fr != (FeedbackRequest{Choice: 1, Seq: 2}) {
			t.Errorf("attempt %d body %q, want choice 1 and seq 2", i+1, body)
		}
	}
}

// TestClientPermanentStatuses: 404 and 409 map back to the manager's
// errors and 400 carries the server's text; none is retried.
func TestClientPermanentStatuses(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   error
	}{
		{http.StatusNotFound, ErrNotFound},
		{http.StatusConflict, ErrSeqAhead},
		{http.StatusBadRequest, nil},
	} {
		c, s := newScriptedClient(t, reply(tc.status, apiError{Error: "server says no"}))
		_, err := c.Feedback(context.Background(), "s1", 1, 0)
		switch {
		case err == nil:
			t.Errorf("status %d: no error", tc.status)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("status %d: error %v, want %v", tc.status, err, tc.want)
		case tc.want == nil && (errors.Is(err, ErrNotFound) || errors.Is(err, ErrSeqAhead)):
			t.Errorf("status %d: error %v maps to a lost-state error", tc.status, err)
		case !strings.Contains(err.Error(), "server says no"):
			t.Errorf("status %d: error %q lacks the server's text", tc.status, err)
		}
		if n := len(s.requests()); n != 1 || c.Retries() != 0 {
			t.Errorf("status %d: %d requests, %d retries; want 1 and 0", tc.status, n, c.Retries())
		}
	}
}

// TestClientCreateRetryKeepsOneSession: the server creates the session of
// the first POST /sessions but its acknowledgement is lost with the
// connection. The client's retry must read that session, not start a
// second one that would hold a live slot until its TTL.
func TestClientCreateRetryKeepsOneSession(t *testing.T) {
	m := New(testOptions())
	h := NewHandler(m, HandlerOptions{})
	var mu sync.Mutex
	dropped := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		drop := !dropped && r.Method == http.MethodPost && r.URL.Path == "/sessions"
		dropped = dropped || drop
		mu.Unlock()
		if drop {
			h.ServeHTTP(httptest.NewRecorder(), r)
			hangUp(w)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client(), 10*time.Second)

	st, err := c.Create(context.Background(), CreateRequest{Dataset: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", c.Retries())
	}
	if n := m.Resident(); n != 1 {
		t.Fatalf("%d sessions resident after one create, want 1", n)
	}
	if _, err := m.Get(st.ID); err != nil {
		t.Fatalf("returned session %s: %v", st.ID, err)
	}
}
