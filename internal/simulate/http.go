package simulate

import (
	"context"
	"errors"
	"fmt"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/core"
	"qfe/internal/feedback"
	"qfe/internal/relation"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

// runHTTP drives one scenario against a qfe-server instance: it ships the
// example pair through POST /sessions, answers each round by reconstructing
// D' from the returned edits and evaluating the target locally, and reads
// the outcome back. Candidate generation happens server-side, so the target
// may legitimately be absent from the server's candidate set; invariants
// are therefore not asserted in HTTP mode (divergence is still recorded)
// and convergence measures the end-to-end service, not just the engine.
// Latency per round is the HTTP round trip, retries included, measured
// through the runner's clock.
func (r *Runner) runHTTP(sc *scenario.Scenario, idx int, res *SessionResult) {
	oracle := r.oracleFor(sc, idx)
	ctx := context.Background()
	t0 := r.clock()
	st, err := r.client.Create(ctx, createRequest(sc, r.opts.MaxCandidates))
	res.latencies = append(res.latencies, r.clock().Sub(t0))
	if err != nil {
		res.Error = err.Error()
		return
	}
	res.Candidates = st.Candidates
	for !st.Done {
		if st.Round == nil {
			res.Error = "simulate: server returned neither round nor outcome"
			return
		}
		res.Rounds++
		choice, err := chooseRound(sc, oracle, st.Round)
		if errors.Is(err, feedback.ErrAbandoned) {
			// Same abandonment signal as the in-process path; tell the
			// server the user walked away.
			_ = r.client.Abandon(ctx, st.ID)
			res.Abandoned = true
			return
		}
		if err != nil {
			res.Error = err.Error()
			return
		}
		t0 = r.clock()
		st, err = r.client.Feedback(ctx, st.ID, st.Round.Seq, choice)
		res.latencies = append(res.latencies, r.clock().Sub(t0))
		if err != nil {
			res.Error = err.Error()
			return
		}
	}
	if st.Outcome == nil {
		res.Error = "simulate: finished session without outcome"
		return
	}
	res.Converged = st.Outcome.Found
	res.Identified = st.Outcome.Query != nil
	res.Ambiguous = st.Outcome.Ambiguous
	remaining, err := codec.DecodeQueries(st.Outcome.Remaining)
	if err != nil {
		res.Error = err.Error()
		return
	}
	var identified *algebra.Query
	if st.Outcome.Query != nil {
		identified, err = codec.DecodeQuery(*st.Outcome.Query)
		if err != nil {
			res.Error = err.Error()
			return
		}
	}
	r.checkOutcome(sc, st.Outcome.Found, identified, remaining, res)
}

// chooseRound is the wire-round answering logic shared by the load runner
// and the chaos harness: check the round's edits against D, decode the
// presented results, and apply the policy client-side (a policy that reads
// D′ rebuilds it from the edits).
func chooseRound(sc *scenario.Scenario, oracle feedback.Oracle,
	round *service.RoundJSON) (int, error) {
	edits, err := codec.DecodeEdits(round.Edits)
	if err != nil {
		return 0, fmt.Errorf("simulate: round edits: %w", err)
	}
	if err := sc.DB.CheckEdits(edits); err != nil {
		return 0, fmt.Errorf("simulate: round edits: %w", err)
	}
	results := make([]*relation.Relation, len(round.Results))
	groups := make([][]int, len(round.Results))
	qi := 0
	for i, rr := range round.Results {
		rel, err := codec.DecodeRelation(rr.Result)
		if err != nil {
			return 0, fmt.Errorf("simulate: round result %d: %w", i, err)
		}
		results[i] = rel
		// Reconstruct group sizes so WorstCase works over the wire (actual
		// query indexes are irrelevant to the shipped policies).
		groups[i] = make([]int, len(rr.Queries))
		for k := range groups[i] {
			groups[i][k] = qi
			qi++
		}
	}
	view := feedback.View{
		Iteration: round.Iteration,
		BaseDB:    sc.DB,
		BaseR:     sc.R,
		Edits:     edits,
		Results:   results,
		Groups:    groups,
	}
	choice, ok, err := oracle.Choose(view)
	if err != nil {
		return 0, err
	}
	if !ok {
		return core.NoneOfThese, nil
	}
	return choice, nil
}

// createRequest is the POST /sessions body that ships a scenario's example
// pair (D, R) for the server to generate at most maxCand candidates from.
func createRequest(sc *scenario.Scenario, maxCand int) service.CreateRequest {
	cd := codec.EncodeDatabase(sc.DB)
	r := codec.EncodeRelation(sc.R)
	return service.CreateRequest{
		Tables:        cd.Tables,
		PrimaryKeys:   cd.PrimaryKeys,
		ForeignKeys:   cd.ForeignKeys,
		Result:        &r,
		MaxCandidates: maxCand,
	}
}
