package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testMiddleware(reg *Registry, inner http.Handler) http.Handler {
	return Middleware(inner, MiddlewareOptions{
		Routes: []string{"/sessions", "/sessions/{id}"},
		RouteFor: func(r *http.Request) string {
			if r.URL.Path == "/sessions" {
				return "/sessions"
			}
			if strings.HasPrefix(r.URL.Path, "/sessions/") {
				return "/sessions/{id}"
			}
			return ""
		},
		Registry: reg,
	})
}

func TestMiddlewareRequestID(t *testing.T) {
	reg := NewRegistry()
	var seen string
	h := testMiddleware(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))

	// No incoming id: one is minted, set on the response, and in context.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/abc", nil))
	if seen == "" {
		t.Fatal("no request id in handler context")
	}
	if got := rec.Header().Get(RequestIDHeader); got != seen {
		t.Fatalf("response header id %q != context id %q", got, seen)
	}

	// An incoming id (e.g. minted at the router) is honoured, not replaced.
	req := httptest.NewRequest(http.MethodGet, "/sessions/abc", nil)
	req.Header.Set(RequestIDHeader, "router-123")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "router-123" {
		t.Fatalf("incoming id not honoured: context has %q", seen)
	}

	// Minted ids are unique.
	if a, b := NewRequestID(), NewRequestID(); a == b || a == "" {
		t.Fatalf("NewRequestID not unique: %q, %q", a, b)
	}
}

func TestMiddlewareMetrics(t *testing.T) {
	reg := NewRegistry()
	h := testMiddleware(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.WriteHeader(http.StatusCreated)
			return
		}
		if r.URL.Path == "/unknown" {
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	for _, path := range []string{"/sessions", "/sessions/abc", "/sessions/def", "/unknown"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}

	reqs := reg.CounterVec("qfe_http_requests_total", "", "route", "code")
	if got := reqs.With("/sessions", "2xx").Value(); got != 1 {
		t.Errorf("/sessions 2xx = %d, want 1", got)
	}
	if got := reqs.With("/sessions/{id}", "2xx").Value(); got != 2 {
		t.Errorf("/sessions/{id} 2xx = %d, want 2", got)
	}
	if got := reqs.With("other", "4xx").Value(); got != 1 {
		t.Errorf("other 4xx = %d, want 1", got)
	}
	lat := reg.HistogramVec("qfe_http_request_seconds", "", LatencyOpts, "route")
	if got := lat.With("/sessions/{id}").Count(); got != 2 {
		t.Errorf("latency count = %d, want 2", got)
	}
	if got := reg.Gauge("qfe_http_inflight", "").Value(); got != 0 {
		t.Errorf("inflight after completion = %d, want 0", got)
	}
}

// TestMiddlewarePanicStillAccounted checks that a panicking handler leaves
// the in-flight gauge where it was, is counted as a 5xx with its latency,
// and that the panic reaches the caller.
func TestMiddlewarePanicStillAccounted(t *testing.T) {
	reg := NewRegistry()
	h := testMiddleware(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		panic("handler bug")
	}))
	func() {
		defer func() {
			if p := recover(); p != "handler bug" {
				t.Errorf("recovered %v, want the handler's panic", p)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/sessions", nil))
	}()
	if got := reg.Gauge("qfe_http_inflight", "").Value(); got != 0 {
		t.Errorf("inflight after a panic = %d, want 0", got)
	}
	reqs := reg.CounterVec("qfe_http_requests_total", "", "route", "code")
	if got := reqs.With("/sessions", "5xx").Value(); got != 1 {
		t.Errorf("/sessions 5xx = %d, want 1", got)
	}
	if got := reqs.With("/sessions", "2xx").Value(); got != 0 {
		t.Errorf("/sessions 2xx = %d, want 0", got)
	}
	lat := reg.HistogramVec("qfe_http_request_seconds", "", LatencyOpts, "route")
	if got := lat.With("/sessions").Count(); got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
}
