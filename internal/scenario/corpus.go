// Corpus file format: a self-describing JSON-lines container for scenarios.
// The first line is a Header identifying the format, version, entry count
// and (for generated corpora) the generation options; each following line
// is one Entry carrying the full instance through the internal/codec wire
// format — database, target query and result — plus the per-scenario seed
// and options needed to regenerate fresh databases for the differential
// oracle. A corpus is therefore replayable on its own: nothing outside the
// file is needed to re-run or re-verify it.
//
// Encoding is deterministic: the same scenarios serialize to byte-identical
// files, which is how the generator's determinism tests (and reproducible
// BENCH_sim runs) compare corpora.
package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"qfe/internal/codec"
)

// Format identification.
const (
	FormatName    = "qfe-corpus"
	FormatVersion = 1
)

// Header is the corpus file's first line.
type Header struct {
	Format  string      `json:"format"`
	Version int         `json:"version"`
	Count   int         `json:"count"`
	Seed    int64       `json:"seed,omitempty"` // corpus-level seed, generated corpora
	Gen     *GenOptions `json:"gen,omitempty"`  // options shared by generated entries
}

// Entry is one scenario in the wire format.
type Entry struct {
	Name   string         `json:"name"`
	Kind   string         `json:"kind"`
	Seed   int64          `json:"seed,omitempty"`
	Gen    *GenOptions    `json:"gen,omitempty"`
	DB     codec.Database `json:"db"`
	Target codec.Query    `json:"target"`
	Result codec.Relation `json:"result"`
}

// EncodeEntry converts a scenario to its corpus wire form.
func EncodeEntry(s *Scenario) Entry {
	return Entry{
		Name:   s.Name,
		Kind:   s.Kind,
		Seed:   s.Seed,
		Gen:    s.Opts,
		DB:     codec.EncodeDatabase(s.DB),
		Target: codec.EncodeQuery(s.Target),
		Result: codec.EncodeRelation(s.R),
	}
}

// DecodeEntry converts the wire form back to a scenario.
func DecodeEntry(e Entry) (*Scenario, error) {
	d, err := codec.DecodeDatabase(e.DB)
	if err != nil {
		return nil, fmt.Errorf("scenario: entry %s: %w", e.Name, err)
	}
	q, err := codec.DecodeQuery(e.Target)
	if err != nil {
		return nil, fmt.Errorf("scenario: entry %s: %w", e.Name, err)
	}
	r, err := codec.DecodeRelation(e.Result)
	if err != nil {
		return nil, fmt.Errorf("scenario: entry %s: %w", e.Name, err)
	}
	kind := e.Kind
	if kind == "" {
		kind = KindCurated
	}
	return &Scenario{Name: e.Name, Kind: kind, Seed: e.Seed, Opts: e.Gen,
		DB: d, Target: q, R: r}, nil
}

// Verify re-evaluates the scenario's target and checks it still produces R
// on D (bag semantics; DISTINCT queries collapse duplicates themselves).
// Corpus consumers call it to reject corrupted or hand-edited entries.
func (s *Scenario) Verify() error {
	got, err := s.Target.Evaluate(s.DB)
	if err != nil {
		return fmt.Errorf("scenario: %s: evaluating target: %w", s.Name, err)
	}
	if !got.BagEqual(s.R) {
		return fmt.Errorf("scenario: %s: target result does not match stored R (%d vs %d tuples)",
			s.Name, got.Len(), s.R.Len())
	}
	return nil
}

// Write serializes a corpus: the header (its Count is overwritten with
// len(scenarios)) followed by one entry per line.
func Write(w io.Writer, hdr Header, scenarios []*Scenario) error {
	hdr.Format = FormatName
	hdr.Version = FormatVersion
	hdr.Count = len(scenarios)
	bw := bufio.NewWriter(w)
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("scenario: write corpus header: %w", err)
	}
	bw.Write(line)
	bw.WriteByte('\n')
	for _, s := range scenarios {
		line, err := json.Marshal(EncodeEntry(s))
		if err != nil {
			return fmt.Errorf("scenario: write corpus entry %s: %w", s.Name, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Reader streams a corpus without holding every entry in memory.
type Reader struct {
	sc     *bufio.Scanner
	Header Header
}

// NewReader validates the header line and positions the reader at the first
// entry.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28) // curated entries hold thousands of rows
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scenario: read corpus header: %w", err)
		}
		return nil, fmt.Errorf("scenario: empty corpus")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("scenario: corpus header: %w", err)
	}
	if hdr.Format != FormatName {
		return nil, fmt.Errorf("scenario: not a %s file (format %q)", FormatName, hdr.Format)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("scenario: unsupported corpus version %d", hdr.Version)
	}
	return &Reader{sc: sc, Header: hdr}, nil
}

// Next returns the next scenario, or io.EOF when the corpus is exhausted.
func (r *Reader) Next() (*Scenario, error) {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return nil, fmt.Errorf("scenario: read corpus: %w", err)
		}
		return nil, io.EOF
	}
	var e Entry
	if err := json.Unmarshal(r.sc.Bytes(), &e); err != nil {
		return nil, fmt.Errorf("scenario: corpus entry: %w", err)
	}
	return DecodeEntry(e)
}
