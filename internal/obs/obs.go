// Package obs is the repo's zero-dependency observability layer: a metrics
// registry (counters, gauges, log₂-bucketed histograms, labeled families),
// a Prometheus text-format exposition writer, a JSON snapshot API, HTTP
// middleware with request-id propagation, a log/slog setup helper and a
// pprof debug handler (DESIGN.md §13).
//
// Hot-path contract: incrementing a Counter, moving a Gauge or observing
// into a Histogram is a handful of atomic operations — zero allocations, no
// map lookups, no locks. Labeled families resolve their (label values →
// handle) mapping once, at setup time, through With; the returned handle is
// the same allocation-free primitive. The contract is enforced by an
// allocs-per-op test (alloc_test.go) and re-checked against the fully
// instrumented engine build by scripts/bench_guard.sh.
//
// Naming convention: qfe_<subsystem>_<what>[_<unit>]. Durations are
// histograms named *_seconds (observed as nanoseconds, exposed in seconds);
// monotone totals end in _total; free-standing values are gauges.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is unusable —
// obtain counters from a Registry so they are exported.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is unsigned: counters never decrease).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind discriminates what a registered name holds.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeFunc, kindGaugeVec:
		return "gauge"
	case kindHistogram, kindHistogramVec:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered name with its collector.
type metric struct {
	name, help string
	kind       kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	gfunc   func() float64
	vec     *vec
}

// Registry holds named metrics and renders them. All methods are safe for
// concurrent use; registration is idempotent by name (re-registering a name
// returns the existing collector, so package-level handles and per-instance
// setup code compose) and panics on a kind mismatch — that is a programming
// error, not a runtime condition.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry creates an empty registry. Most callers use Default.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every package-level handle lives in;
// GET /metrics on qfe-server and qfe-router exposes it.
func Default() *Registry { return defaultRegistry }

// lookup returns the existing metric for name, checking the kind, or
// reserves the name with a new descriptor built by mk.
func (r *Registry) lookup(name, help string, k kind, mk func(*metric)) *metric {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: k}
	mk(m)
	r.byName[name] = m
	return m
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// GaugeFunc registers a gauge read from fn at scrape time — for state a
// subsystem already holds, so no hot path is touched. Re-registering a name
// keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, kindGaugeFunc, func(m *metric) { m.gfunc = fn })
}

// Histogram registers (or returns) a histogram (see HistogramOpts).
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	m := r.lookup(name, help, kindHistogram, func(m *metric) { m.hist = newHistogram(opts) })
	return m.hist
}

// vec is the shared machinery of labeled families: a label schema plus a
// guarded (label values → child) map. With resolves once; the returned
// child is a plain Counter/Gauge/Histogram with no residual locking.
type vec struct {
	labels []string
	opts   HistogramOpts // histogram vecs only

	mu       sync.Mutex
	children map[string]*vecChild
}

type vecChild struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// childKey joins label values with an unprintable separator.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// child resolves (creating if needed) the child for values.
func (v *vec) child(values []string, k kind) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: got %d label values for %d labels %v",
			len(values), len(v.labels), v.labels))
	}
	key := childKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := &vecChild{values: append([]string(nil), values...)}
	switch k {
	case kindCounterVec:
		c.counter = &Counter{}
	case kindGaugeVec:
		c.gauge = &Gauge{}
	case kindHistogramVec:
		c.hist = newHistogram(v.opts)
	}
	v.children[key] = c
	return c
}

// sortedChildren returns children ordered by label values (deterministic
// exposition).
func (v *vec) sortedChildren() []*vecChild {
	v.mu.Lock()
	out := make([]*vecChild, 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// CounterVec is a family of counters sharing a name, split by label values.
type CounterVec struct{ m *metric }

// With resolves the child counter for the given label values. Resolution
// takes a lock and may allocate — do it at setup time and keep the handle.
func (cv CounterVec) With(values ...string) *Counter {
	return cv.m.vec.child(values, kindCounterVec).counter
}

// GaugeVec is a family of gauges split by label values.
type GaugeVec struct{ m *metric }

// With resolves the child gauge (setup-time; see CounterVec.With).
func (gv GaugeVec) With(values ...string) *Gauge {
	return gv.m.vec.child(values, kindGaugeVec).gauge
}

// HistogramVec is a family of histograms split by label values.
type HistogramVec struct{ m *metric }

// With resolves the child histogram (setup-time; see CounterVec.With).
func (hv HistogramVec) With(values ...string) *Histogram {
	return hv.m.vec.child(values, kindHistogramVec).hist
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	m := r.lookup(name, help, kindCounterVec, func(m *metric) {
		m.vec = &vec{labels: append([]string(nil), labels...), children: map[string]*vecChild{}}
	})
	return CounterVec{m: m}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	m := r.lookup(name, help, kindGaugeVec, func(m *metric) {
		m.vec = &vec{labels: append([]string(nil), labels...), children: map[string]*vecChild{}}
	})
	return GaugeVec{m: m}
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, opts HistogramOpts, labels ...string) HistogramVec {
	m := r.lookup(name, help, kindHistogramVec, func(m *metric) {
		m.vec = &vec{labels: append([]string(nil), labels...), opts: opts, children: map[string]*vecChild{}}
	})
	return HistogramVec{m: m}
}

// sorted returns the registered metrics ordered by name.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Package-level shortcuts on the Default registry — what instrumented
// packages use to declare their handles as vars at init time.

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default().Counter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default().Gauge(name, help) }

// NewGaugeFunc registers a scrape-time gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { Default().GaugeFunc(name, help, fn) }

// NewLatency registers a latency histogram (1µs … ~34s, exposed in seconds)
// on the Default registry.
func NewLatency(name, help string) *Histogram {
	return Default().Histogram(name, help, LatencyOpts)
}

// NewSize registers a size/count histogram (1 … 2³⁰) on the Default registry.
func NewSize(name, help string) *Histogram {
	return Default().Histogram(name, help, SizeOpts)
}

// NewCounterVec registers a labeled counter family on the Default registry.
func NewCounterVec(name, help string, labels ...string) CounterVec {
	return Default().CounterVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family on the Default registry.
func NewGaugeVec(name, help string, labels ...string) GaugeVec {
	return Default().GaugeVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family on the Default registry.
func NewHistogramVec(name, help string, opts HistogramOpts, labels ...string) HistogramVec {
	return Default().HistogramVec(name, help, opts, labels...)
}
