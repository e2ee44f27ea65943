package wal

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzReplay writes arbitrary bytes as one segment and replays it. Replay
// must not panic or fail, must flag a torn tail whenever it drops bytes,
// and the file cut to its valid prefix (size − DroppedBytes) must replay to
// the same records with nothing dropped. The same bytes, split at cut over
// two segments, must replay as Corrupt exactly when the first segment,
// replayed alone, has a torn tail. The seeds are a real two-record segment,
// that segment cut mid-record and mid-header, and an empty file.
func FuzzReplay(f *testing.F) {
	seg, firstEnd := twoRecordSegment(f)
	f.Add(seg, uint16(firstEnd))
	f.Add(seg[:len(seg)-3], uint16(firstEnd))   // mid-record
	f.Add(seg[:firstEnd+4], uint16(firstEnd/2)) // mid-header
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		dir := t.TempDir()
		path := segPath(dir, 1)
		writeFile(t, path, data)
		recs, stats := collect(t, dir)
		if stats.DroppedBytes > 0 && !stats.TornTail {
			t.Fatalf("dropped %d bytes without a torn tail: %+v", stats.DroppedBytes, stats)
		}
		if err := os.Truncate(path, int64(len(data))-stats.DroppedBytes); err != nil {
			t.Fatal(err)
		}
		again, astats := collect(t, dir)
		if astats.DroppedBytes != 0 || !reflect.DeepEqual(again, recs) {
			t.Fatalf("valid prefix replays differently: %d records %+v, then %d records %+v",
				len(recs), stats, len(again), astats)
		}

		k := int(cut) % (len(data) + 1)
		first := t.TempDir()
		writeFile(t, segPath(first, 1), data[:k])
		_, alone := collect(t, first)
		both := t.TempDir()
		writeFile(t, segPath(both, 1), data[:k])
		writeFile(t, segPath(both, 2), data[k:])
		_, split := collect(t, both)
		if split.Corrupt != alone.TornTail {
			t.Fatalf("split at %d: Corrupt %v, but the first segment alone has TornTail %v",
				k, split.Corrupt, alone.TornTail)
		}
	})
}

// twoRecordSegment appends two records through a Log and returns the
// segment's bytes and the offset where the second record starts.
func twoRecordSegment(f *testing.F) ([]byte, int) {
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	recs := []Record{
		{Type: TypeCreated, ID: "s", UnixNs: 1, Created: json.RawMessage(`{"x":1}`)},
		feedbackRec("s", 1, 0),
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	seg := l.Segment()
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, seg))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(recs[0])
	if err != nil {
		f.Fatal(err)
	}
	return data, len(segMagic) + 8 + len(payload)
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
