package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qfe/internal/core"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
	"qfe/internal/testref"
)

// TestRecoverConfig13Fixture pins the state-file and WAL formats across the
// removal of five ConfigSnapshot fields, which kept SnapshotVersion. The
// fixture in testdata/config13 was written by the code before that change,
// whose config records carry thirteen fields, on the demo pair at
// qfe-server's -wal settings (qbo cap 32, Parallelism 0, 100,000-pair
// budget):
//   - "finished" answered result 0 in every round until it finished;
//   - "midround" answered result 0 once, then state.json was checkpointed,
//     then it answered result 0 again, so that answer is only in the WAL;
//   - "walonly" was created after the checkpoint and answered result 1
//     once, so its created record is only in the WAL.
//
// Recover must restore all three, and their rounds and outcomes must match
// fresh sessions driven with the same answers.
func TestRecoverConfig13Fixture(t *testing.T) {
	opts := testOptions()
	opts.TTL = 100 * 365 * 24 * time.Hour // the fixture's sessions were last used when it was written
	m := New(opts)
	stats, err := m.Recover("testdata/config13/state.json", "testdata/config13/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Errors) > 0 || stats.SnapshotSessions != 2 || stats.ReplaySessions != 2 {
		t.Fatalf("recover: %d from the snapshot, %d replayed, errors %v; want 2, 2, none",
			stats.SnapshotSessions, stats.ReplaySessions, stats.Errors)
	}

	d, r, err := datasetPair("demo", "")
	if err != nil {
		t.Fatal(err)
	}
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = 32
	qc, err := qbo.Generate(d, r, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		id      string
		answers []int
	}{
		{"finished", []int{0, 0, 0, 0}},
		{"midround", []int{0, 0}},
		{"walonly", []int{1}},
	} {
		fresh := New(testOptions())
		want, err := fresh.CreateWithID(ctx, c.id, d, r, qc)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range c.answers {
			if want, err = fresh.FeedbackAt(ctx, c.id, want.Round.Seq, a); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Get(c.id)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if g, w := roundSignature(got.Round), roundSignature(want.Round); g != w {
			t.Fatalf("%s: recovered round differs:\n  got  %s\n  want %s", c.id, g, w)
		}
		g := outcomeSignature(driveToOutcome(t, m, c.id, feedback.WorstCase{}))
		w := outcomeSignature(driveToOutcome(t, fresh, c.id, feedback.WorstCase{}))
		if g != w {
			t.Errorf("%s: recovered outcome differs:\n  got  %s\n  want %s", c.id, g, w)
		}
	}
}

// roundSignature reduces a pending round to what it presents: its seq, the
// edits that make D', and each result with the candidates producing it.
func roundSignature(r *core.Round) string {
	if r == nil {
		return "<finished>"
	}
	sig := fmt.Sprintf("seq=%d edits=%v", r.Seq, r.View.Edits)
	for i, res := range r.View.Results {
		sig += fmt.Sprintf(" [%v: %s]", r.View.Groups[i], testref.Fingerprint(res))
	}
	return sig
}

// outcomeSignature extends outcomeFingerprint with every round's
// deterministic statistics.
func outcomeSignature(out *core.Outcome) string {
	sig := outcomeFingerprint(out)
	for _, it := range out.Iterations {
		sig += fmt.Sprintf(" (|QC|=%d k=%d |SP|=%d enum=%d db=%d res=%d chose=%d/%d)",
			it.NumQueries, it.NumSubsets, it.SkylinePairs, it.Enumerated,
			it.DBCost, it.ResultCost, it.ChosenSubset, it.ChosenSize)
	}
	return sig
}
