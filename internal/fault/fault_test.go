package fault

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/wal"
)

// TestScheduleRoundTrip pins the JSON wire form: durations as strings, and
// parse → save → parse stability.
func TestScheduleRoundTrip(t *testing.T) {
	src := `{
		"storage": [
			{"atRecord": 5, "kind": "torn"},
			{"atRecord": 9, "kind": "enospc", "duration": "1.5s"}
		],
		"network": [
			{"after": "2s", "duration": "750ms", "kind": "partition", "side": "inbound"},
			{"after": 1000000, "kind": "latency", "latency": "10ms"}
		]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Storage[1].Duration.D() != 1500*time.Millisecond {
		t.Fatalf("duration string parse: %v", s.Storage[1].Duration.D())
	}
	if s.Network[1].After.D() != time.Millisecond {
		t.Fatalf("duration number parse: %v", s.Network[1].After.D())
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round trip changed schedule:\n  %+v\n  %+v", s, again)
	}
}

// TestScheduleValidate rejects unknown kinds, sides, and bad triggers.
func TestScheduleValidate(t *testing.T) {
	bad := []string{
		`{"storage":[{"atRecord":1,"kind":"explode"}]}`,
		`{"storage":[{"atRecord":0,"kind":"eio"}]}`,
		`{"network":[{"kind":"wormhole"}]}`,
		`{"network":[{"kind":"drop","side":"sideways"}]}`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("schedule %s parsed without error", src)
		}
	}
}

// TestGenerateDeterministic pins seeded generation: same seed, same
// schedule; different seeds, different trigger points; and the generated
// schedule covers the acceptance-critical kinds.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(Generate(7).Storage, Generate(8).Storage) {
		t.Fatal("different seeds produced identical storage faults")
	}
	for _, kind := range []string{KindTorn, KindEIO, KindENOSPC, KindStall} {
		if !a.HasStorageKind(kind) {
			t.Errorf("generated schedule lacks %s", kind)
		}
	}
	if !a.HasNetwork(SideInbound) || !a.HasNetwork(SideOutbound) {
		t.Error("generated schedule lacks a network side")
	}
}

// TestLoadSeedSpec accepts the "seed:N" flag form.
func TestLoadSeedSpec(t *testing.T) {
	s, err := Load("seed:42")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || !s.HasStorage() {
		t.Fatalf("seed spec: %+v", s)
	}
}

// openTestJournal opens a faulting journal over a temp WAL, returning the
// WAL directory for replay checks.
func openTestJournal(t *testing.T, sched *Schedule) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenJournal(wal.Options{Dir: dir, Sync: wal.SyncAlways},
		sched, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j, dir
}

func rec(id string, seq int) wal.Record {
	return wal.Record{Type: wal.TypeFeedback, ID: id, Seq: seq}
}

// TestJournalEIOOneShot: the scripted EIO fails exactly one append; the
// retry lands, and replay delivers only the successfully appended records.
func TestJournalEIOOneShot(t *testing.T) {
	j, dir := openTestJournal(t, &Schedule{Storage: []StorageFault{{AtRecord: 2, Kind: KindEIO}}})
	if err := j.Append(rec("a", 1)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := j.Append(rec("a", 2)); err == nil {
		t.Fatal("append 2 should hit the injected EIO")
	}
	if err := j.Append(rec("a", 2)); err != nil {
		t.Fatalf("retry after EIO: %v", err)
	}
	var got []int
	stats, err := wal.Replay(dir, func(r wal.Record) error {
		got = append(got, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTail || stats.Corrupt || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("replay after EIO: %v %+v", got, stats)
	}
}

// TestJournalTornWrite: a torn write puts real partial bytes on disk, the
// append fails, the log heals (truncate-back), and the retry produces a
// clean replayable log — no torn tail, no corruption, no duplicates lost.
func TestJournalTornWrite(t *testing.T) {
	j, dir := openTestJournal(t, &Schedule{Storage: []StorageFault{{AtRecord: 2, Kind: KindTorn}}})
	if err := j.Append(rec("a", 1)); err != nil {
		t.Fatal(err)
	}
	err := j.Append(rec("a", 2))
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("want injected torn write error, got %v", err)
	}
	if err := j.Append(rec("a", 2)); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	var got []int
	stats, err := wal.Replay(dir, func(r wal.Record) error {
		got = append(got, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTail || stats.Corrupt || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("replay after torn write: %v %+v", got, stats)
	}
}

// TestJournalENOSPCWindow: while the window is open both Append and Ping
// fail; when it expires both recover — the degraded-mode round trip.
func TestJournalENOSPCWindow(t *testing.T) {
	j, _ := openTestJournal(t, &Schedule{Storage: []StorageFault{
		{AtRecord: 1, Kind: KindENOSPC, Duration: Duration(time.Second)}}})
	clock := time.Unix(100, 0)
	j.now = func() time.Time { return clock }

	if err := j.Append(rec("a", 1)); err == nil {
		t.Fatal("append inside ENOSPC window should fail")
	}
	if err := j.Ping(); err == nil {
		t.Fatal("ping inside ENOSPC window should fail")
	}
	clock = clock.Add(2 * time.Second)
	if err := j.Ping(); err != nil {
		t.Fatalf("ping after window: %v", err)
	}
	if err := j.Append(rec("a", 1)); err != nil {
		t.Fatalf("append after window: %v", err)
	}
}

// TestJournalStall: the scripted stall delays exactly one sync'd append.
func TestJournalStall(t *testing.T) {
	j, _ := openTestJournal(t, &Schedule{Storage: []StorageFault{
		{AtRecord: 1, Kind: KindStall, Duration: Duration(time.Hour)}}})
	var slept time.Duration
	j.sleep = func(d time.Duration) { slept += d }
	if err := j.Append(rec("a", 1)); err != nil {
		t.Fatal(err)
	}
	if slept != time.Hour {
		t.Fatalf("stall slept %v, want 1h", slept)
	}
	if err := j.Append(rec("a", 2)); err != nil {
		t.Fatal(err)
	}
	if slept != time.Hour {
		t.Fatalf("stall fired twice: %v", slept)
	}
}

// TestTransportFaults drives latency, partition and drop windows with a
// fake clock against a live test server.
func TestTransportFaults(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	tr := NewTransport(nil, &Schedule{Network: []NetworkFault{
		{After: Duration(10 * time.Second), Duration: Duration(time.Second), Kind: KindPartition},
		{After: Duration(20 * time.Second), Duration: Duration(time.Second), Kind: KindDrop},
	}}, t.Logf)
	clock := tr.start
	tr.now = func() time.Time { return clock }
	client := &http.Client{Transport: tr}

	// Before any window: passes through.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Partition window: request never reaches the server.
	clock = tr.start.Add(10*time.Second + 500*time.Millisecond)
	before := hits
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("partition window should fail the request")
	}
	if hits != before {
		t.Fatal("partitioned request reached the server")
	}

	// Drop window: the server sees the request, the client loses the
	// response — the ack ambiguity.
	clock = tr.start.Add(20*time.Second + 500*time.Millisecond)
	before = hits
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("drop window should fail the request")
	}
	if hits != before+1 {
		t.Fatalf("dropped request should reach the server once, hits %d -> %d", before, hits)
	}

	// Windows closed: healthy again.
	clock = tr.start.Add(time.Minute)
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestListenerPartition severs both new and established connections during
// the window and accepts again after it closes.
func TestListenerPartition(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(raw, &Schedule{Network: []NetworkFault{
		{After: Duration(10 * time.Second), Duration: Duration(time.Second),
			Kind: KindPartition, Side: SideInbound}}}, t.Logf)
	// The server's connection goroutines read the clock, so it is atomic.
	var clock atomic.Pointer[time.Time]
	setClock := func(t time.Time) { clock.Store(&t) }
	setClock(ln.start)
	ln.now = func() time.Time { return *clock.Load() }

	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + raw.Addr().String()

	// Dedicated client per phase: pooled connections must also be severed.
	c1 := &http.Client{Timeout: 5 * time.Second}
	resp, err := c1.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	setClock(ln.start.Add(10*time.Second + 200*time.Millisecond))
	if resp, err := c1.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("request during partition should fail (even on a pooled connection)")
	}

	setClock(ln.start.Add(time.Minute))
	resp, err = c1.Get(url)
	if err != nil {
		t.Fatalf("request after partition: %v", err)
	}
	resp.Body.Close()
}
