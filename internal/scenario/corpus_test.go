package scenario

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestCorpusRoundTrip: encode → decode → re-encode must be byte-identical
// (the codec preserves every value, constraint and query structurally).
func TestCorpusRoundTrip(t *testing.T) {
	opts := DefaultGenOptions()
	corpus, err := GenerateCorpus(5, 10, opts)
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	cs, err := Curated()
	if err != nil {
		t.Fatalf("Curated: %v", err)
	}
	corpus = append(corpus, cs[0]) // mix one curated entry in

	var first bytes.Buffer
	if err := Write(&first, Header{Seed: 5, Gen: &opts}, corpus); err != nil {
		t.Fatalf("Write: %v", err)
	}
	cr, err := NewReader(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	hdr := cr.Header
	var decoded []*Scenario
	for {
		s, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		decoded = append(decoded, s)
	}
	if hdr.Count != len(corpus) || hdr.Seed != 5 {
		t.Fatalf("header = %+v, want count %d seed 5", hdr, len(corpus))
	}
	if len(decoded) != len(corpus) {
		t.Fatalf("decoded %d scenarios, want %d", len(decoded), len(corpus))
	}
	for _, s := range decoded {
		if err := s.Verify(); err != nil {
			t.Errorf("decoded scenario: %v", err)
		}
	}
	var second bytes.Buffer
	if err := Write(&second, Header{Seed: 5, Gen: &opts}, decoded); err != nil {
		t.Fatalf("re-Write: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
	}
}

// TestCorpusReaderStreams: the streaming reader yields entries in order and
// ends with io.EOF.
func TestCorpusReaderStreams(t *testing.T) {
	corpus, err := GenerateCorpus(3, 4, DefaultGenOptions())
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, corpus); err != nil {
		t.Fatalf("Write: %v", err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i := 0; ; i++ {
		s, err := rd.Next()
		if err == io.EOF {
			if i != len(corpus) {
				t.Fatalf("EOF after %d entries, want %d", i, len(corpus))
			}
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if s.Name != corpus[i].Name {
			t.Fatalf("entry %d: name %q, want %q", i, s.Name, corpus[i].Name)
		}
	}
}

// TestCorpusRejectsForeignFiles: headers of the wrong format or version are
// refused up front.
func TestCorpusRejectsForeignFiles(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json\n",
		`{"format":"something-else","version":1}` + "\n",
		`{"format":"qfe-corpus","version":99}` + "\n",
	} {
		if _, err := NewReader(strings.NewReader(bad)); err == nil {
			t.Errorf("NewReader accepted %q", bad)
		}
	}
}
