package simulate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/core"
	"qfe/internal/feedback"
	"qfe/internal/relation"
	"qfe/internal/retry"
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
// Latency per round is the HTTP round-trip measured through the runner's
// clock.
func (r *Runner) runHTTP(sc *scenario.Scenario, idx int, res *SessionResult) {
	client := retry.HTTPClient(r.opts.HTTPTimeout)
	base := r.opts.Server

	req := service.CreateRequest{
		Result:        ptr(codec.EncodeRelation(sc.R)),
		MaxCandidates: r.opts.MaxCandidates,
	}
	cd := codec.EncodeDatabase(sc.DB)
	req.Tables = cd.Tables
	req.PrimaryKeys = cd.PrimaryKeys
	req.ForeignKeys = cd.ForeignKeys

	oracle := r.oracleFor(sc, idx)

	st, err := r.call(client, http.MethodPost, base+"/sessions", req, res)
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
		choice, err := r.chooseHTTP(sc, oracle, st.Round)
		if errors.Is(err, feedback.ErrAbandoned) {
			// Same abandonment signal as the in-process path; tell the
			// server the user walked away.
			_, _ = r.call(client, http.MethodDelete, base+"/sessions/"+st.ID, nil, nil)
			res.Abandoned = true
			return
		}
		if err != nil {
			res.Error = err.Error()
			return
		}
		st, err = r.call(client, http.MethodPost,
			base+"/sessions/"+st.ID+"/feedback", service.FeedbackRequest{Choice: choice}, res)
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

// chooseHTTP answers one HTTP round: it rebuilds D' from the round's edits,
// decodes the presented results, and applies the policy client-side.
func (r *Runner) chooseHTTP(sc *scenario.Scenario, oracle feedback.Oracle,
	round *service.RoundJSON) (int, error) {
	return chooseRound(sc, oracle, round)
}

// chooseRound is the wire-round answering logic shared by the load runner
// and the chaos harness: rebuild D' from the round's edits, decode the
// presented results, and apply the policy client-side.
func chooseRound(sc *scenario.Scenario, oracle feedback.Oracle,
	round *service.RoundJSON) (int, error) {
	edits, err := codec.DecodeEdits(round.Edits)
	if err != nil {
		return 0, fmt.Errorf("simulate: round edits: %w", err)
	}
	modified, err := sc.DB.ApplyEdits(edits)
	if err != nil {
		return 0, fmt.Errorf("simulate: applying round edits: %w", err)
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
		NewDB:     modified,
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

// call performs one JSON request/response cycle, charging its latency to
// the session when res is non-nil.
func (r *Runner) call(client *http.Client, method, url string, body any, res *SessionResult) (*service.SessionJSON, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := r.clock()
	resp, err := client.Do(req)
	if res != nil {
		res.latencies = append(res.latencies, r.clock().Sub(t0))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return nil, fmt.Errorf("simulate: %s %s: %s", method, url, apiErr.Error)
		}
		return nil, fmt.Errorf("simulate: %s %s: status %d", method, url, resp.StatusCode)
	}
	var st service.SessionJSON
	if method == http.MethodDelete {
		return nil, nil
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("simulate: decoding %s response: %w", url, err)
	}
	return &st, nil
}

func ptr[T any](v T) *T { return &v }
