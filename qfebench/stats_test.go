package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"qfe/internal/obs"
)

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n, p int
		want float64
		ok   bool
	}{
		{100, 50, 50.5, true},
		{100, 90, 90.1, true}, // exactly 10 samples beyond
		{99, 90, 89.2, false}, // 9.9 beyond: too few
		{20, 50, 10.5, true},
		{19, 50, 10, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(xs[:c.n], c.p)
		if math.Abs(got-c.want) > 1e-9 || ok != c.ok {
			t.Errorf("percentile(n=%d, p%d) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty input must not be reportable")
	}
	// The input must not be reordered.
	ys := []float64{3, 1, 2}
	percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("percentile sorted its input: %v", ys)
	}
}

func TestTailLineCarriesSampleCount(t *testing.T) {
	var rep report
	tailsAndCommon(&rep, metricLine{Name: "setup_s", Value: median([]float64{1, 3, 2}), Unit: "s", N: 3},
		10, 5, make([]float64, 150), make([]float64, 40))
	byName := map[string]metricLine{}
	for _, m := range rep.E2E {
		byName[m.Name] = m
	}
	if m := byName["setup_s"]; m.Value != 2 || m.N != 3 {
		t.Errorf("setup_s = %+v, want median 2 of 3", m)
	}
	if m := byName["sessions_per_s"]; m.Value != 2 || m.N != 10 {
		t.Errorf("sessions_per_s = %+v, want 2 with n=10", m)
	}
	if m := byName["first_round_p90_ms"]; m.Skip || m.N != 150 {
		t.Errorf("first_round_p90_ms over 150 samples = %+v, want reported with n=150", m)
	}
	if m := byName["round_p90_ms"]; !m.Skip || m.N != 40 {
		t.Errorf("round_p90_ms over 40 samples = %+v, want omitted with n=40", m)
	}
	if m := byName["round_p50_ms"]; m.Skip {
		t.Errorf("a median is always reported: %+v", m)
	}
}

func TestObsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "", obs.LatencyOpts)
	cv := reg.CounterVec("v_total", "", "route")
	c.Add(5)
	h.ObserveDuration(3 * time.Microsecond)
	before := indexSnapshot(reg.Snapshot())

	c.Add(7)
	cv.With("/a").Add(2)
	h.ObserveDuration(3 * time.Microsecond)
	h.ObserveDuration(100 * time.Microsecond)
	h.ObserveDuration(100 * time.Microsecond)
	after := indexSnapshot(reg.Snapshot())

	if d := valueDelta(before, after, "c_total"); d != 7 {
		t.Errorf("counter delta = %v, want 7", d)
	}
	// A series born between the snapshots counts from zero.
	if d := valueDelta(before, after, seriesKey("v_total", map[string]string{"route": "/a"})); d != 2 {
		t.Errorf("new vec child delta = %v, want 2", d)
	}
	if d := valueDelta(before, after, "missing"); d != 0 {
		t.Errorf("missing series delta = %v, want 0", d)
	}
	d := histogramDelta(before, after, "h_seconds")
	if d.Count != 3 {
		t.Fatalf("histogram count delta = %d, want 3", d.Count)
	}
	if want := 203e-6; math.Abs(d.Sum-want) > 1e-12 {
		t.Errorf("histogram sum delta = %v, want %v", d.Sum, want)
	}
	if m := d.mean(); math.Abs(m-203e-6/3) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	// Summing the same delta twice (two processes) doubles every figure.
	two := obsDelta{{before, after}, {before, after}}
	if h2 := two.hist("h_seconds"); h2.Count != 6 || math.Abs(h2.Sum-2*203e-6) > 1e-12 {
		t.Errorf("two-process histogram delta = %+v", h2)
	}
	if v := two.value("c_total"); v != 14 {
		t.Errorf("two-process counter delta = %v, want 14", v)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 30}, {20, 40}, {50, 60}}, 60},
		{"nested", []interval{{10, 40}, {15, 20}}, 70},
		{"clipped to parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"identical", []interval{{0, 100}, {0, 100}}, 0},
		{"outside", []interval{{200, 300}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLedgerSharesSumToOne(t *testing.T) {
	for _, c := range []struct {
		name  string
		total float64
		parts []part
		rest  float64
	}{
		{"under-attributed", 100, []part{{Layer: "a", Ms: 30}, {Layer: "b", Ms: 50}}, 20},
		{"exact", 80, []part{{Layer: "a", Ms: 30}, {Layer: "b", Ms: 50}}, 0},
		{"over-attributed", 100, []part{{Layer: "a", Ms: 60}, {Layer: "b", Ms: 50}}, -10},
	} {
		l := ledger(c.total, c.parts)
		last := l[len(l)-1]
		if last.Layer != "unattributed" || math.Abs(last.Ms-c.rest) > 1e-9 {
			t.Errorf("%s: unattributed = %+v, want %v ms", c.name, last, c.rest)
		}
		share := 0.0
		for _, p := range l {
			share += p.Share
		}
		if math.Abs(share-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v, want 1", c.name, share)
		}
	}
}

// Engine calls are split by the engine's own timers; core is the round
// timer minus the named phases, and the part of the call no timer covers
// stays unattributed.
func TestLedgerAccumulator(t *testing.T) {
	first := newLedger("first_round", "qbo", "core")
	first.totalMs, first.calls = 12, 1
	first.add("qbo", 2)
	engineRows(first, map[string]float64{"round": 8, "batch_eval": 1, "skyline": 2, "alg4": 3, "concretize": 0.5})
	// A call ending in ErrNoSplit: phases observed, no round time.
	engineRows(first, map[string]float64{"alg4": 1})
	tb := first.table()
	got := map[string]float64{}
	for _, p := range tb.Parts {
		got[p.Layer] = p.Ms
	}
	want := map[string]float64{"qbo": 2, "core": 1.5, "dbgen.skyline": 2, "dbgen.alg4": 4,
		"dbgen.concretize": 0.5, "algebra": 1, "unattributed": 1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", k, got[k], v)
		}
	}
	if s := tb.share(engineParts...); math.Abs(s-9.0/12) > 1e-9 {
		t.Errorf("engine share = %v, want 0.75", s)
	}
	if s := tb.share("unattributed"); math.Abs(s-1.0/12) > 1e-9 {
		t.Errorf("unattributed share = %v, want 1/12", s)
	}
}

// The tracer charges its own bookkeeping to its overhead when on, and reads
// no clock when off.
func TestTracerChargesItself(t *testing.T) {
	off := newTracer(false)
	off.end(off.begin("s", -1, 0))
	off.record("c", -1, 0, time.Now(), time.Now())
	if off.overhead != 0 || len(off.spans) != 0 {
		t.Errorf("tracer off: overhead %v, %d spans", off.overhead, len(off.spans))
	}
	on := newTracer(true)
	root := on.begin("s", -1, 0)
	for i := 0; i < 100; i++ {
		on.record("c", root, 0, time.Now(), time.Now())
	}
	on.end(root)
	if on.overhead <= 0 || len(on.spans) != 101 {
		t.Errorf("tracer on: overhead %v, %d spans", on.overhead, len(on.spans))
	}
}

// The JSON line must carry exactly the metrics BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []struct{ Name string }, code []string) {
		if len(decl) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(decl), len(code))
			return
		}
		for i := range decl {
			if decl[i].Name != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, benchmark %q", kind, i, decl[i].Name, code[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eNames)
	check("per_layer", b.PerLayer, layerNames)
}

func TestResultLineRefusesMissingMetric(t *testing.T) {
	rep := &report{Workload: "w", Attempted: 1}
	for _, n := range e2eNames[1:] {
		rep.add(metricLine{Name: n, Value: 1, Unit: "x"})
	}
	if _, err := resultLine(rep, false); err == nil {
		t.Fatal("a result line without setup_s was printed")
	}
	rep.add(metricLine{Name: e2eNames[0], Value: 1, Unit: "s"})
	line, err := resultLine(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 1 || len(got.Metrics) != len(e2eNames) {
		t.Errorf("result line = %s", line)
	}
}
