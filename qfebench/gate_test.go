package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/feedback"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

// againstTarget answers every round with a result other than the target's.
type againstTarget struct{ target *algebra.Query }

func (a againstTarget) Choose(v feedback.View) (int, bool, error) {
	i, ok, err := feedback.Target{Query: a.target}.Choose(v)
	if err != nil || !ok {
		return 0, true, err
	}
	return (i + 1) % len(v.Results), true, nil
}

func gateInputs(t *testing.T, n int) []instance {
	t.Helper()
	scs, err := scenario.GenerateCorpus(winnowCorpusSeed, n, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]instance, len(scs))
	for i, sc := range scs {
		out[i] = instanceOf(sc)
	}
	return out
}

// The gate must fail a run whose simulated user answers against the target,
// and pass the same sessions answered honestly.
func TestGateFailsOracleAgainstTarget(t *testing.T) {
	inputs := gateInputs(t, 12)
	honest := newInproc(newTracer(false))
	liar := newInproc(newTracer(false))
	liar.oracle = func(in instance) feedback.Oracle { return againstTarget{in.Target} }

	withRounds, flagged := 0, 0
	for i, in := range inputs {
		if r := honest.session(i, in); len(r.violations) > 0 {
			t.Fatalf("honest session %s failed the gate: %v", in.Name, r.violations)
		}
		r := liar.session(i, in)
		if r.out.Rounds > 0 {
			withRounds++
		}
		if len(r.violations) > 0 {
			flagged++
		}
	}
	if withRounds == 0 {
		t.Fatal("no session had a feedback round; the test proves nothing")
	}
	if flagged == 0 {
		t.Fatalf("none of %d sessions answered against the target failed the gate", withRounds)
	}
	t.Logf("%d of %d sessions with rounds flagged", flagged, withRounds)
}

// Outcomes, and so the digest, do not depend on tracing or on the order the
// sessions ran in.
func TestDigestIgnoresTracingAndOrder(t *testing.T) {
	inputs := gateInputs(t, 6)
	run := func(trace bool, order []int) string {
		ip := newInproc(newTracer(trace))
		return digest(ip.runPhase(inputs, order, 1).outcomes())
	}
	a := run(false, []int{0, 1, 2, 3, 4, 5})
	b := run(true, []int{5, 3, 1, 0, 2, 4})
	if a != b {
		t.Fatalf("digest %s untraced in order, %s traced and shuffled", a, b)
	}
}

// A server whose rounds skip a seq, or that answers with an undocumented
// error, fails the service gate; the documented no-candidates 400 does not.
func TestServiceGate(t *testing.T) {
	inputs, err := serviceInputs(serviceCorpusSeed, 6)
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(service.NewHandler(service.New(service.Options{Config: engineConfig()}),
		service.HandlerOptions{MaxCandidates: 32}))
	defer upstream.Close()

	// Find an input the real server runs for at least one round.
	var in svcInput
	cl := newClient(upstream.URL, newTracer(false))
	for _, cand := range inputs {
		u := cl.user(0, cand)
		if len(u.violations) > 0 {
			t.Fatalf("real server failed the gate on %s: %v", cand.in.Name, u.violations)
		}
		if u.out.Rounds > 0 {
			in = cand
			break
		}
	}
	if in.body == nil {
		t.Fatal("no input produced a round")
	}

	skipSeq := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		upstream.Config.Handler.ServeHTTP(rec, r)
		var st service.SessionJSON
		if json.Unmarshal(rec.Body.Bytes(), &st) == nil && st.Round != nil && r.Method == http.MethodPost {
			st.Round.Seq += 1
			w.WriteHeader(rec.Code)
			_ = json.NewEncoder(w).Encode(st)
			return
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer skipSeq.Close()
	if u := newClient(skipSeq.URL, newTracer(false)).user(0, in); len(u.violations) == 0 {
		t.Error("rounds with skipped seqs passed the gate")
	}

	for _, c := range []struct {
		status int
		body   string
		pass   bool
	}{
		{http.StatusBadRequest, `{"error":"` + noCandidates + `"}`, true},
		{http.StatusBadRequest, `{"error":"bad request body"}`, false},
		{http.StatusServiceUnavailable, `{"error":"degraded"}`, false},
	} {
		c := c
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.status)
			_, _ = w.Write([]byte(c.body))
		}))
		u := newClient(srv.URL, newTracer(false)).user(0, in)
		srv.Close()
		if pass := len(u.violations) == 0; pass != c.pass {
			t.Errorf("create answered %d %s: gate pass = %v, want %v (%v)", c.status,
				strings.TrimSpace(c.body), pass, c.pass, u.violations)
		}
	}
}
