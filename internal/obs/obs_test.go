package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentByName(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_total", "first")
	b := reg.Counter("t_total", "second help is ignored")
	if a != b {
		t.Fatal("re-registering a counter name returned a different handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles from duplicate registration do not share state")
	}
	h1 := reg.Histogram("t_h", "h", SizeOpts)
	h2 := reg.Histogram("t_h", "h", LatencyOpts) // opts of the first registration win
	if h1 != h2 {
		t.Fatal("re-registering a histogram name returned a different handle")
	}
	v1 := reg.CounterVec("t_v", "v", "l")
	v2 := reg.CounterVec("t_v", "v", "l")
	if v1.With("x") != v2.With("x") {
		t.Fatal("vec children not shared across duplicate registration")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("t_total", "g")
}

func TestVecLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("t_v", "v", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong label count did not panic")
		}
	}()
	cv.With("only-one")
}

// TestRegistryConcurrentStress hammers registration, increments, vec
// resolution and scraping from many goroutines; run under -race it verifies
// the registry's concurrency contract.
func TestRegistryConcurrentStress(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "c")
	g := reg.Gauge("t_gauge", "g")
	h := reg.Histogram("t_hist", "h", SizeOpts)
	cv := reg.CounterVec("t_vec", "v", "worker")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			mine := cv.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(int64(i))
				mine.Inc()
				if i%500 == 0 {
					// Concurrent re-registration and resolution must be safe.
					reg.Counter("t_total", "c").Inc()
					cv.With(label).Inc()
				}
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			reg.WritePrometheus(&b)
			reg.Snapshot()
		}
	}()
	wg.Wait()
	scrape.Wait()

	wantC := uint64(workers * (iters + iters/500))
	if c.Value() != wantC {
		t.Errorf("counter = %d, want %d", c.Value(), wantC)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	for w := 0; w < workers; w++ {
		label := string(rune('a' + w))
		want := uint64(iters + iters/500)
		if got := cv.With(label).Value(); got != want {
			t.Errorf("vec[%s] = %d, want %d", label, got, want)
		}
	}
}

func TestHandlerFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_total", "c").Add(5)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "t_total 5") {
		t.Errorf("text body missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"t_total"`) {
		t.Errorf("json body missing counter:\n%s", rec.Body.String())
	}
}

func TestDefaultRegistryHasBuildInfo(t *testing.T) {
	var b strings.Builder
	Default().WritePrometheus(&b)
	out := b.String()
	for _, name := range []string{"qfe_build_info", "qfe_process_uptime_seconds", "qfe_go_goroutines"} {
		if !strings.Contains(out, name) {
			t.Errorf("default registry missing %s", name)
		}
	}
}
