package obs

import (
	"testing"
	"time"
)

// TestHotPathZeroAllocs enforces the package contract: incrementing any
// pre-resolved handle — plain or vec-resolved — performs zero allocations.
// Instrumented hot paths (per-round engine timers, WAL appends, proxy
// attempts) rely on this; a regression here is a performance bug in every
// tier at once.
func TestHotPathZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "c")
	g := reg.Gauge("t_gauge", "g")
	h := reg.Histogram("t_hist", "h", LatencyOpts)
	vc := reg.CounterVec("t_vec_total", "vc", "route").With("/sessions")
	vh := reg.HistogramVec("t_vec_seconds", "vh", LatencyOpts, "route").With("/sessions")

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Gauge.Inc", func() { g.Inc() }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Millisecond) }},
		{"CounterVec child Inc", func() { vc.Inc() }},
		{"HistogramVec child Observe", func() { vh.Observe(999) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("b_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("b_seconds", "b", LatencyOpts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
