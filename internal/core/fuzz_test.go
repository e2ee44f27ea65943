package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"qfe/internal/qbo"
	"qfe/internal/testref"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to UnmarshalSnapshot and
// Restore, which must never panic. A snapshot Restore accepts must
// re-snapshot to one that Restore accepts again and that snapshots back to
// itself, every field equal but the elapsed times. An accepted snapshot
// awaiting feedback must then take one Feedback without panicking, and the
// same choice on the session and on its re-restored copy must give the same
// next round, outcome or error. The seeds are a session snapshotted in
// every state it passes through (new, each pending round, done, and failed)
// and the sessions of the service's config13 state file, written before
// ConfigSnapshot lost five fields.
func FuzzRestoreSnapshot(f *testing.F) {
	for _, seed := range snapshotSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		s, err := Restore(snap, nil)
		if err != nil {
			return
		}
		first, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a restored session: %v", err)
		}
		again, err := Restore(first, nil)
		if err != nil {
			t.Fatalf("Restore rejects a restored session's snapshot: %v", err)
		}
		second, err := again.Snapshot()
		if err != nil {
			t.Fatalf("second snapshot: %v", err)
		}
		for _, sn := range []*Snapshot{first, second} {
			sn.ElapsedNs, sn.RoundElapsedNs = 0, 0
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("snapshot changed across Restore: %s", snapshotDiff(first, second))
		}
		if s.Pending() == nil {
			return
		}
		choice := len(data)%(len(s.Pending().View.Results)+1) - 1 // NoneOfThese included
		got := stepDigest(s.Feedback(choice))
		want := stepDigest(again.Feedback(choice))
		// A δ time budget cuts where the clock says, so only a pair budget
		// makes the two steps comparable.
		if snap.Config.BudgetNs == 0 && got != want {
			t.Fatalf("choice %d: restored session steps to\n%s\nits re-restored copy to\n%s", choice, got, want)
		}
	})
}

// stepDigest renders what one Feedback call produced — the next round, the
// outcome or the error — without its timings.
func stepDigest(r *Round, o *Outcome, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case r != nil:
		out := fmt.Sprintf("round seq %d iteration %d group %d/%d edits %v groups %v",
			r.Seq, r.Iteration, r.Group, r.NumGroups, r.View.Edits, r.View.Groups)
		for _, res := range r.View.Results {
			out += "\nresult " + testref.Fingerprint(res)
		}
		for _, q := range r.View.Queries {
			out += "\nquery " + q.Key()
		}
		return out
	case o != nil:
		out := fmt.Sprintf("outcome found %v ambiguous %v rounds %d modcost %d",
			o.Found, o.Ambiguous, len(o.Iterations), o.TotalModCost)
		if o.Query != nil {
			out += "\nquery " + o.Query.Key()
		}
		for _, q := range o.Remaining {
			out += "\nremaining " + q.Key()
		}
		return out
	}
	return "nothing"
}

// snapshotDiff names the top-level snapshot fields that differ, with their
// two encodings.
func snapshotDiff(a, b *Snapshot) string {
	fields := func(sn *Snapshot) map[string]json.RawMessage {
		data, _ := json.Marshal(sn)
		var m map[string]json.RawMessage
		_ = json.Unmarshal(data, &m)
		return m
	}
	fa, fb := fields(a), fields(b)
	var out string
	for k := range fa {
		if string(fa[k]) != string(fb[k]) {
			out += fmt.Sprintf("\n%s: %s\n%s: %s", k, fa[k], k, fb[k])
		}
	}
	for k := range fb {
		if _, ok := fa[k]; !ok {
			out += fmt.Sprintf("\n%s: absent\n%s: %s", k, k, fb[k])
		}
	}
	return out
}

// snapshotSeeds snapshots a session in every state it passes through and
// adds the sessions of the service's config13 fixture.
func snapshotSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(s *Session) {
		snap, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	d, r := employeeDB(tb)
	qc, err := qbo.Generate(d, r, qbo.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewStepSession(d, r, qc, testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	add(s)
	round, err := s.Start()
	for ; err == nil && round != nil; round, _, err = s.Feedback(0) {
		add(s)
	}
	if err != nil {
		tb.Fatal(err)
	}
	add(s)

	cfg := testConfig()
	cfg.MaxIterations = 1
	failed, err := NewStepSession(d, r, qc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	round, err = failed.Start()
	if err != nil || round == nil {
		tb.Fatalf("start: %v", err)
	}
	if _, _, err := failed.Feedback(0); err == nil {
		tb.Fatal("expected the MaxIterations failure")
	}
	add(failed)

	raw, err := os.ReadFile("../service/testdata/config13/state.json")
	if err != nil {
		tb.Fatal(err)
	}
	var state struct {
		Sessions []struct {
			Snapshot json.RawMessage `json:"snapshot"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &state); err != nil {
		tb.Fatal(err)
	}
	for _, ss := range state.Sessions {
		seeds = append(seeds, ss.Snapshot)
	}
	return seeds
}
