package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries the request id minted at the router to workers,
// so one client call can be traced across tiers in structured logs.
const RequestIDHeader = "X-Request-ID"

// requestIDPrefix is a per-process random tag so ids from different
// processes (router vs. worker-originated) cannot collide.
var requestIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var requestIDSeq atomic.Uint64

// NewRequestID mints a process-unique request id (random process prefix
// plus an atomic sequence number).
func NewRequestID() string {
	return requestIDPrefix + "-" + strconv.FormatUint(requestIDSeq.Add(1), 16)
}

type ctxKey int

const requestIDKey ctxKey = 0

// WithRequestID returns a context carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID extracts the request id from a context ("" if absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeInstruments is the pre-resolved handle set for one route: latency
// histogram plus one counter per status class, so the per-request path does
// no map lookups (the class index is status/100).
type routeInstruments struct {
	latency *Histogram
	byClass [6]*Counter // index status/100; 0 is unused
}

// MiddlewareOptions configures Middleware.
type MiddlewareOptions struct {
	// Routes are the known route templates; RouteFor must map each request
	// to one of them (or ""). Unknown routes share the "other" series.
	Routes []string
	// RouteFor maps a request to its route template.
	RouteFor func(r *http.Request) string
	// SessionIDFor extracts a session id for log attrs ("" if none).
	SessionIDFor func(r *http.Request) string
	// Logger receives one completion line per request; nil disables logging.
	Logger *slog.Logger
	// Registry defaults to Default().
	Registry *Registry
}

// Middleware wraps next with per-route latency histograms, status-class
// counters, an in-flight gauge, request-id propagation (honouring an
// incoming X-Request-ID, minting one otherwise) and a structured completion
// log. All instruments are resolved here, once, at wrap time.
func Middleware(next http.Handler, opts MiddlewareOptions) http.Handler {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	latVec := reg.HistogramVec("qfe_http_request_seconds",
		"HTTP request latency by route.", LatencyOpts, "route")
	reqVec := reg.CounterVec("qfe_http_requests_total",
		"HTTP requests by route and status class.", "route", "code")
	inflight := reg.Gauge("qfe_http_inflight",
		"HTTP requests currently being served.")

	instruments := make(map[string]*routeInstruments, len(opts.Routes)+1)
	resolve := func(route string) *routeInstruments {
		ri := &routeInstruments{latency: latVec.With(route)}
		for class := 1; class <= 5; class++ {
			ri.byClass[class] = reqVec.With(route, strconv.Itoa(class)+"xx")
		}
		return ri
	}
	for _, route := range opts.Routes {
		instruments[route] = resolve(route)
	}
	other := resolve("other")

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, reqID)
		r = r.WithContext(WithRequestID(r.Context(), reqID))

		route := ""
		if opts.RouteFor != nil {
			route = opts.RouteFor(r)
		}
		ri, ok := instruments[route]
		if !ok {
			ri = other
			route = "other"
		}

		inflight.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// The accounting is deferred so that a panicking handler still
		// leaves the in-flight gauge and is recorded, as a 5xx; the panic
		// then goes on to the server.
		defer func() {
			inflight.Dec()
			p := recover()
			if p != nil {
				sw.status = http.StatusInternalServerError
			}
			elapsed := time.Since(start)
			ri.latency.ObserveDuration(elapsed)
			class := sw.status / 100
			if class < 1 || class > 5 {
				class = 5
			}
			ri.byClass[class].Inc()

			if opts.Logger != nil {
				attrs := []any{
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("route", route),
					slog.Int("status", sw.status),
					slog.Duration("elapsed", elapsed),
					slog.String("request_id", reqID),
				}
				if opts.SessionIDFor != nil {
					if sid := opts.SessionIDFor(r); sid != "" {
						attrs = append(attrs, slog.String("session_id", sid))
					}
				}
				opts.Logger.Info("http request", attrs...)
			}
			if p != nil {
				panic(p)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
