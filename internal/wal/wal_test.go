package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Segment returns the index of the active segment.
func (l *Log) Segment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

func openT(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, stats
}

func feedbackRec(id string, seq, choice int) Record {
	return Record{Type: TypeFeedback, ID: id, Seq: seq, Choice: choice}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	want := []Record{
		{Type: TypeCreated, ID: "a", UnixNs: 123, Created: json.RawMessage(`{"x":1}`)},
		feedbackRec("a", 1, 0),
		feedbackRec("a", 2, -1), // NoneOfThese must round-trip
		{Type: TypeFinished, ID: "a"},
		{Type: TypeAbandoned, ID: "b"},
		{Type: TypeDead, ID: "c"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, stats := collect(t, dir)
	if stats.TornTail || stats.Corrupt || stats.Records != len(want) {
		t.Fatalf("stats: %+v", stats)
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID ||
			got[i].Seq != want[i].Seq || got[i].Choice != want[i].Choice ||
			!bytes.Equal(got[i].Created, want[i].Created) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendBatchIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if err := l.Append(feedbackRec("a", 1, 2), Record{Type: TypeFinished, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if stats.Records != 2 || got[1].Type != TypeFinished {
		t.Fatalf("batch append lost records: %+v %+v", stats, got)
	}
}

// TestTornTail truncates the newest segment at every byte boundary inside
// the final record: replay must deliver the longest valid prefix and flag
// the torn tail, never error or deliver a partial record.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := l.Append(feedbackRec("s", i+1, i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := segPath(dir, segs[len(segs)-1])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the third record: replay the prefix lengths.
	recs, _ := collect(t, dir)
	if len(recs) != 3 {
		t.Fatalf("setup: %d records", len(recs))
	}
	// Truncate to every length between "after record 2" and "almost full".
	var offsets []int
	off := 8 // magic
	for i := 0; i < 2; i++ {
		payload, _ := json.Marshal(recs[i])
		off += 8 + len(payload)
	}
	for cut := off + 1; cut < len(full); cut++ {
		offsets = append(offsets, cut)
	}
	offsets = append(offsets, off) // clean cut exactly after record 2
	for _, cut := range offsets {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats := collect(t, dir)
		if len(got) != 2 {
			t.Fatalf("cut %d: got %d records, want 2", cut, len(got))
		}
		if cut > off && !stats.TornTail {
			t.Fatalf("cut %d: torn tail not detected: %+v", cut, stats)
		}
		if cut == off && (stats.TornTail || stats.Corrupt) {
			t.Fatalf("clean cut flagged: %+v", stats)
		}
	}
}

// TestCRCCorruption flips one payload byte: the record and everything after
// it must be dropped, and corruption before the last segment must be
// flagged Corrupt (not TornTail).
func TestCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, SegmentBytes: 1}) // rotate every append
	for i := 0; i < 4; i++ {
		if err := l.Append(feedbackRec("s", i+1, i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments", len(segs))
	}
	// Corrupt the second record (lives in a non-final segment: the first
	// segment holds only the header, records start in the second).
	path := segPath(dir, segs[2])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 1 || !stats.Corrupt || stats.TornTail {
		t.Fatalf("got %d records, stats %+v", len(got), stats)
	}
	if stats.DroppedBytes == 0 {
		t.Fatal("dropped bytes not counted")
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if err := l.Append(feedbackRec("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(feedbackRec("a", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(boundary); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, dir)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("after truncation: %+v (stats %+v)", got, stats)
	}
	segs, _ := listSegments(dir)
	for _, s := range segs {
		if s < boundary {
			t.Fatalf("segment %d survived truncation below %d", s, boundary)
		}
	}
}

// TestReopenStartsFreshSegment ensures Open never appends to an existing
// (possibly torn) segment, and that records from previous generations
// replay before the new ones.
func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	if err := l.Append(feedbackRec("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	seg1 := l.Segment()
	l.Close()
	l2 := openT(t, Options{Dir: dir})
	if l2.Segment() <= seg1 {
		t.Fatalf("reopen reused segment %d (was %d)", l2.Segment(), seg1)
	}
	if err := l2.Append(feedbackRec("a", 2, 1)); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("cross-generation order: %+v", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		dir := t.TempDir()
		l := openT(t, Options{Dir: dir, Sync: pol, SyncInterval: time.Millisecond})
		for i := 0; i < 10; i++ {
			if err := l.Append(feedbackRec("a", i+1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _ := collect(t, dir); len(got) != 10 {
			t.Fatalf("policy %d: %d records", pol, len(got))
		}
	}
	if _, err := ParseSyncPolicy("nope"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, Sync: SyncOff, SegmentBytes: 1024})
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(feedbackRec(fmt.Sprintf("s%d", w), i+1, 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, stats := collect(t, dir)
	if len(got) != workers*per || stats.TornTail || stats.Corrupt {
		t.Fatalf("%d records, stats %+v", len(got), stats)
	}
	// Per-session order must be preserved even across segment rotations.
	last := map[string]int{}
	for _, r := range got {
		if r.Seq != last[r.ID]+1 {
			t.Fatalf("session %s: seq %d after %d", r.ID, r.Seq, last[r.ID])
		}
		last[r.ID] = r.Seq
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2-longer" {
		t.Fatalf("read back %q err %v", data, err)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory litter: %v", ents)
	}
}

func TestOpenMissingDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	l := openT(t, Options{Dir: dir})
	if err := l.Append(feedbackRec("a", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir); len(got) != 1 {
		t.Fatal("nested dir not usable")
	}
	// Replay of a directory that never existed is empty, not an error.
	if recs, stats := collect(t, filepath.Join(dir, "missing")); len(recs) != 0 || stats.Segments != 0 {
		t.Fatalf("missing dir: %v %+v", recs, stats)
	}
}
