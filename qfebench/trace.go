package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory for the whole run and are written out when it ends.
type span struct {
	Name    string             `json:"name"`
	Start   int64              `json:"start_ns"` // since the tracer's origin
	End     int64              `json:"end_ns"`
	Parent  int                `json:"parent"` // index into the span list, -1 for a root
	Session int                `json:"session"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// tracer records spans when on; when off every method is a no-op that reads
// no clock, so untraced runs pay nothing for the hooks.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
	// overhead is the time spent in the tracer's own bookkeeping: every
	// method charges itself, and callers charge the obs snapshots they take
	// around engine calls. It is reported as trace.overhead_frac.
	overhead time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, session int) int {
	if !t.on {
		return -1
	}
	c := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: c.Sub(t.origin).Nanoseconds(), Parent: parent, Session: session})
	id := len(t.spans) - 1
	t.overhead += time.Since(c)
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	c := time.Now()
	t.mu.Lock()
	t.spans[id].End = c.Sub(t.origin).Nanoseconds()
	t.overhead += time.Since(c)
	t.mu.Unlock()
}

// record adds a finished span from explicit times.
func (t *tracer) record(name string, parent, session int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	c := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Session: session,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	id := len(t.spans) - 1
	t.overhead += time.Since(c)
	t.mu.Unlock()
	return id
}

// setAttrs attaches attributes to a recorded span.
func (t *tracer) setAttrs(id int, attrs map[string]float64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Attrs = attrs
	t.mu.Unlock()
}

// rename renames a recorded span (a call's kind can be known only after
// it returns).
func (t *tracer) rename(id int, name string) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// charge adds bookkeeping time to the tracer's overhead.
func (t *tracer) charge(d time.Duration) {
	t.mu.Lock()
	t.overhead += d
	t.mu.Unlock()
}

// children indexes spans by parent.
func (t *tracer) children() map[int][]int {
	out := make(map[int][]int)
	for i, s := range t.spans {
		out[s.Parent] = append(out[s.Parent], i)
	}
	return out
}

// selfMs is a span's self time: its duration minus what its children cover.
func (t *tracer) selfMs(id int, kids map[int][]int) float64 {
	cs := make([]interval, 0, len(kids[id]))
	for _, c := range kids[id] {
		cs = append(cs, t.spans[c].interval())
	}
	return float64(selfTime(t.spans[id].interval(), cs)) / 1e6
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if !t.on {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
