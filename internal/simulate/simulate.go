// Package simulate drives full QFE sessions over a scenario stream at
// configurable concurrency — the load harness the production service is
// measured against. Each scenario (internal/scenario) supplies (D, R,
// target); the harness reverse-engineers candidates with internal/qbo
// (injecting the target so convergence is well-defined), runs the winnowing
// session either in-process via core.Session or over HTTP against
// qfe-server, answers rounds with a pluggable feedback policy
// (internal/feedback: target, worst-case, noisy, abandoning), and checks
// per-session invariants:
//
//   - the target's result is among the presented results of every round of
//     the target's join-schema group (it must survive winnowing), and
//   - the converged class in the target's group contains the target, and a
//     uniquely identified same-group query is result-equivalent to the
//     target on D and on N freshly generated databases over the same schema
//     — a metamorphic differential oracle that turns every generated
//     scenario into a correctness test of the whole engine. Surviving
//     queries that fresh data *can* tell apart from the target are counted
//     as divergence: the residual ambiguity perfect feedback over one
//     database cannot remove (see checkOutcome).
//
// All time is read through one injectable clock, so latency percentiles are
// testable without sleeping. Scenario-level concurrency uses the shared
// internal/par worker pool. The per-session engine runs under a
// deterministic pair budget, which makes every deterministic report field
// reproducible bit-for-bit across runs and worker counts; it runs serially
// (Parallelism 1) for throughput, since the scenarios already keep every
// core busy, not for determinism: every engine worker count gives the same
// rounds.
package simulate

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/par"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/retry"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

// Policy selects the automated feedback source.
type Policy string

// Supported policies.
const (
	// PolicyTarget always picks the subset containing the target (§7's
	// "automated result feedback"). Invariant checking runs under it.
	PolicyTarget Policy = "target"
	// PolicyWorst picks the largest subset (§7 worst-case behaviour).
	PolicyWorst Policy = "worst"
	// PolicyNoisy follows the target but flips to a wrong answer with
	// probability NoiseRate (seeded per session).
	PolicyNoisy Policy = "noisy"
	// PolicyAbandon follows the target for AbandonAfter rounds, then walks
	// away; the session counts as abandoned.
	PolicyAbandon Policy = "abandon"
)

// ParsePolicy validates a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyTarget, PolicyWorst, PolicyNoisy, PolicyAbandon:
		return Policy(s), nil
	}
	return "", fmt.Errorf("simulate: unknown policy %q (want target, worst, noisy or abandon)", s)
}

// Options tunes a simulation run. Zero values select defaults.
type Options struct {
	// Workers sets scenario-level concurrency (internal/par semantics:
	// 0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Policy selects the feedback source; default PolicyTarget.
	Policy Policy
	// NoiseRate is PolicyNoisy's flip probability, used exactly as given
	// (0 = a noisy oracle that never errs; the CLI defaults it to 0.1) and
	// NoiseSeed its base seed (per-session streams are derived from it).
	NoiseRate float64
	// AbandonAfter is PolicyAbandon's patience in rounds, used exactly as
	// given (0 abandons on the first round; the CLI defaults it to 2).
	AbandonAfter int
	NoiseSeed    int64
	// FreshDBs is the number of freshly generated databases the
	// differential oracle evaluates per generated scenario, used exactly as
	// given (0 checks on D only — always the case for curated scenarios;
	// the CLI defaults it to 2).
	FreshDBs int
	// MaxCandidates bounds qbo candidate generation per scenario
	// (default 16).
	MaxCandidates int
	// NoInjectTarget disables adding the target query to the candidate set
	// when qbo did not derive it. Injection is on by default: with the
	// target present, target-policy convergence is an engine invariant
	// rather than a property of qbo's search budget.
	NoInjectTarget bool
	// DisableInvariants turns invariant checking off even under
	// PolicyTarget (it is off automatically for other policies, which
	// intentionally deviate from the target, and for HTTP runs, where the
	// server builds its own candidate set so the target may be absent).
	DisableInvariants bool
	// Core overrides the session configuration. The zero value selects
	// DefaultCoreConfig (serial engine, deterministic pair budget).
	Core *core.Config
	// Server, when set (e.g. "http://127.0.0.1:8080"), drives sessions over
	// the qfe-server HTTP API instead of in-process.
	Server string
	// HTTPTimeout bounds each HTTP attempt, and the retries of each call
	// (default 30s).
	HTTPTimeout time.Duration
	// Clock substitutes time.Now; every latency and wall-time measurement
	// in the run reads it, so tests inject a fake clock instead of
	// sleeping.
	Clock func() time.Time
}

// DefaultCoreConfig is the harness's session configuration: the engine's
// defaults with the time-based δ budget replaced by a deterministic
// pair-count budget, which makes each session's rounds a function of its
// inputs and so simulation reports reproducible from their seed. The
// intra-session loops run serially (Parallelism 1) for throughput:
// concurrency comes from running many sessions at once, and every worker
// count would give the same rounds.
func DefaultCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
	cfg.Parallelism = 1
	return cfg
}

// Runner executes simulation runs. Create with New.
type Runner struct {
	opts    Options
	coreCfg core.Config
	clock   func() time.Time
	client  *service.Client // HTTP mode only
}

// New validates options and prepares a runner.
func New(opts Options) (*Runner, error) {
	if opts.Policy == "" {
		opts.Policy = PolicyTarget
	}
	if _, err := ParsePolicy(string(opts.Policy)); err != nil {
		return nil, err
	}
	if opts.NoiseRate < 0 || opts.NoiseRate > 1 {
		return nil, fmt.Errorf("simulate: noise rate %v outside [0, 1]", opts.NoiseRate)
	}
	if opts.FreshDBs < 0 {
		return nil, fmt.Errorf("simulate: negative fresh-database count %d", opts.FreshDBs)
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 16
	}
	if opts.HTTPTimeout <= 0 {
		opts.HTTPTimeout = 30 * time.Second
	}
	r := &Runner{opts: opts, clock: opts.Clock}
	if r.clock == nil {
		r.clock = time.Now
	}
	if opts.Core != nil {
		r.coreCfg = *opts.Core
	} else {
		r.coreCfg = DefaultCoreConfig()
	}
	if opts.Server != "" {
		r.client = service.NewClient(opts.Server, retry.HTTPClient(opts.HTTPTimeout), opts.HTTPTimeout)
	}
	return r, nil
}

// Run simulates every scenario of the corpus and returns the aggregated
// report. Scenario order in the report matches corpus order regardless of
// worker scheduling.
func (r *Runner) Run(corpus []*scenario.Scenario) (*Report, error) {
	if len(corpus) == 0 {
		return nil, errors.New("simulate: empty corpus")
	}
	rep := &Report{
		Policy:   string(r.opts.Policy),
		Workers:  par.Workers(r.opts.Workers),
		Server:   r.opts.Server,
		FreshDBs: r.opts.FreshDBs,
		// Injection only exists in-process; the HTTP server derives its own
		// candidate set, so an HTTP report must not claim the target was
		// guaranteed present.
		InjectTarget: !r.opts.NoInjectTarget && r.opts.Server == "",
	}
	results := make([]SessionResult, len(corpus))
	var inFlight, peak atomic.Int64
	t0 := r.clock()
	par.Do(len(corpus), par.Workers(r.opts.Workers), func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		results[i] = r.runOne(corpus[i], i)
		inFlight.Add(-1)
	})
	rep.aggregate(results, r.clock().Sub(t0), int(peak.Load()))
	return rep, nil
}

// runOne drives a single scenario to completion.
func (r *Runner) runOne(sc *scenario.Scenario, idx int) SessionResult {
	res := SessionResult{Name: sc.Name, Kind: sc.Kind}
	if r.opts.Server != "" {
		r.runHTTP(sc, idx, &res)
		return res
	}
	r.runInProcess(sc, idx, &res)
	return res
}

// candidates builds the scenario's candidate set: qbo's reverse-engineered
// queries, plus the target itself unless disabled or already found.
func (r *Runner) candidates(sc *scenario.Scenario) ([]*algebra.Query, error) {
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = r.opts.MaxCandidates
	qc, err := qbo.Generate(sc.DB, sc.R, qcfg)
	if err != nil {
		return nil, err
	}
	if !r.opts.NoInjectTarget {
		present := false
		for _, q := range qc {
			if q.Key() == sc.Target.Key() {
				present = true
				break
			}
		}
		if !present {
			t := sc.Target.Clone()
			t.Name = "target"
			qc = append(qc, t)
		}
	}
	if len(qc) == 0 {
		return nil, errors.New("simulate: no candidate queries")
	}
	return qc, nil
}

// oracleFor builds the per-session feedback oracle.
func (r *Runner) oracleFor(sc *scenario.Scenario, idx int) feedback.Oracle {
	target := feedback.Target{Query: sc.Target}
	switch r.opts.Policy {
	case PolicyWorst:
		return feedback.WorstCase{}
	case PolicyNoisy:
		return feedback.NewNoisy(target, r.opts.NoiseRate, r.opts.NoiseSeed+int64(idx)*1_000_003)
	case PolicyAbandon:
		return &feedback.Abandoning{Inner: target, After: r.opts.AbandonAfter}
	default:
		return target
	}
}

// checkInvariants reports whether this run asserts the target-survival and
// differential-oracle invariants.
func (r *Runner) checkInvariants() bool {
	return r.opts.Policy == PolicyTarget && r.opts.Server == "" && !r.opts.DisableInvariants
}

// runInProcess steps a core.Session to completion, measuring each engine
// step (Start / Feedback) through the runner's clock.
func (r *Runner) runInProcess(sc *scenario.Scenario, idx int, res *SessionResult) {
	t0 := r.clock()
	qc, err := r.candidates(sc)
	res.qgen = r.clock().Sub(t0)
	if err != nil {
		res.Error = err.Error()
		return
	}
	res.Candidates = len(qc)
	sess, err := core.NewStepSession(sc.DB, sc.R, qc, r.coreCfg)
	if err != nil {
		res.Error = err.Error()
		return
	}
	oracle := r.oracleFor(sc, idx)

	tr := r.clock()
	round, err := sess.Start()
	res.latencies = append(res.latencies, r.clock().Sub(tr))
	if err != nil {
		res.Error = err.Error()
		return
	}
	for round != nil {
		res.Rounds++
		if r.checkInvariants() {
			r.checkRound(sc, round, res)
		}
		choice, ok, err := oracle.Choose(round.View)
		if errors.Is(err, feedback.ErrAbandoned) {
			res.Abandoned = true
			return
		}
		if err != nil {
			res.Error = err.Error()
			return
		}
		if !ok {
			choice = core.NoneOfThese
		}
		tr = r.clock()
		round, _, err = sess.Feedback(choice)
		res.latencies = append(res.latencies, r.clock().Sub(tr))
		if err != nil {
			res.Error = err.Error()
			return
		}
	}
	out, done := sess.Outcome()
	if !done {
		res.Error = "simulate: session stopped without outcome"
		return
	}
	res.Converged = out.Found
	res.Identified = out.Query != nil
	res.Ambiguous = out.Ambiguous
	r.checkOutcome(sc, out.Found, out.Query, out.Remaining, res)
}

// checkRound asserts the target-survival invariant on one presented round:
// within the target's own join-schema group, the target's result on D'
// must be among the presented results (rounds for other groups legitimately
// exclude it — that is §6.2's group-by-group winnowing).
func (r *Runner) checkRound(sc *scenario.Scenario, round *core.Round, res *SessionResult) {
	if len(round.View.Queries) == 0 ||
		round.View.Queries[0].JoinSchemaKey() != sc.Target.JoinSchemaKey() {
		return
	}
	_, ok, err := feedback.Target{Query: sc.Target}.Choose(round.View)
	if err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("round %d: evaluating target on D': %v", round.Seq, err))
		return
	}
	if !ok {
		res.Violations = append(res.Violations,
			fmt.Sprintf("round %d: target result missing from presented results", round.Seq))
	}
}

// checkOutcome asserts the convergence invariants and runs the metamorphic
// differential oracle. Invariants apply only under target policy with the
// target injected (checkInvariants); divergence on fresh databases is
// recorded whenever the outcome is available.
//
// The invariants are calibrated to what the engine actually guarantees.
// Sessions winnow join-schema groups largest-first (§6.2) and finish as
// soon as one group narrows to a single class — so a session can converge,
// legitimately, on an *impostor* from a different join schema whose results
// agreed with the target's on the original database and on every presented
// modification. Perfect feedback cannot tell such a query from the target;
// only fresh data can. Within the target's own group, though, target
// feedback provably preserves the target, so there the surviving class must
// contain it (and a uniquely identified same-group query must be
// result-equivalent to it everywhere). Cross-group impostors that fresh
// databases expose are counted as Divergent — the differential oracle's
// measure of residual ambiguity — not as violations.
func (r *Runner) checkOutcome(sc *scenario.Scenario, found bool, query *algebra.Query,
	remaining []*algebra.Query, res *SessionResult) {
	check := r.checkInvariants() && !r.opts.NoInjectTarget
	if check && !found {
		res.Violations = append(res.Violations,
			"session ended not-found although the target was a candidate and feedback followed it")
		return
	}
	if !found {
		return
	}
	// Evaluate the target once per database; every equivalence check below
	// compares against these.
	dbs := append([]*db.Database{sc.DB}, r.freshDBs(sc, res)...)
	wants := make([]*relation.Relation, len(dbs))
	for i, d := range dbs {
		want, err := sc.Target.Evaluate(d)
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("evaluating target on database %d: %v", i, err))
			return
		}
		wants[i] = want
	}
	targetKey := sc.Target.Key()
	targetGroup := sc.Target.JoinSchemaKey()
	sameGroup := false
	containsTarget := false
	for _, q := range remaining {
		if q.JoinSchemaKey() == targetGroup {
			sameGroup = true
		}
		if q.Key() == targetKey {
			containsTarget = true
		}
	}
	if check && sameGroup && !containsTarget {
		res.Violations = append(res.Violations,
			"converged class in the target's join-schema group does not contain the target")
	}
	if check && query != nil && query.JoinSchemaKey() == targetGroup &&
		query.Key() != targetKey && !resultEquivalent(query, dbs, wants) {
		res.Violations = append(res.Violations,
			"identified same-group query is not result-equivalent to the target on D and fresh databases")
	}
	// Differential oracle: every surviving query the fresh databases can
	// tell apart from the target is residual ambiguity the session's
	// modification space could not (or did not) resolve.
	for _, q := range remaining {
		if q.Key() == targetKey {
			continue
		}
		if !resultEquivalent(q, dbs, wants) {
			res.Divergent++
		}
	}
}

// freshDBs builds the differential oracle's databases for a scenario.
func (r *Runner) freshDBs(sc *scenario.Scenario, res *SessionResult) []*db.Database {
	if !sc.CanFresh() {
		return nil
	}
	out := make([]*db.Database, 0, r.opts.FreshDBs)
	for k := 0; k < r.opts.FreshDBs; k++ {
		d, err := sc.FreshDB(k)
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("fresh db %d: %v", k, err))
			return out
		}
		out = append(out, d)
	}
	return out
}

// resultEquivalent reports whether q produces results bag-equal to the
// target's precomputed results on every database.
func resultEquivalent(q *algebra.Query, dbs []*db.Database, wants []*relation.Relation) bool {
	for i, d := range dbs {
		got, err := q.Evaluate(d)
		if err != nil || !got.BagEqual(wants[i]) {
			return false
		}
	}
	return true
}
