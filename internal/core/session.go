// Package core implements the QFE driver (paper §2, Algorithm 1): starting
// from a database-result pair (D, R) and a candidate query set QC, it
// iteratively asks the Database Generator for a distinguishing database D',
// partitions QC by the candidates' results on D', obtains feedback on which
// result is correct, and prunes the rest — until a single candidate (or an
// equivalence class of provably indistinguishable candidates) remains.
//
// The driver also implements the §6.2 extension: candidates with different
// join schemas are winnowed group by group, largest group first.
//
// The session is a pausable state machine: Start computes the first feedback
// round and suspends; Feedback consumes a choice and either produces the next
// round or the final Outcome. Run wires the machine to a feedback.Oracle and
// drives it to completion — the blocking loop of the paper — while services
// can hold many suspended sessions and step each one as user responses
// arrive. A Session is not safe for concurrent use; callers that share one
// across goroutines must serialize access (internal/service does).
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/relation"
	"qfe/internal/tupleclass"
)

// Config tunes a session. Zero values select the paper's defaults.
type Config struct {
	// Gen configures the Database Generator (β, δ, search caps).
	Gen dbgen.Options
	// MaxIterations bounds the winnowing loop per join-schema group
	// (safety; the loop provably shrinks QC every round otherwise).
	MaxIterations int
	// Parallelism sets the worker count for the session's parallel loops:
	// the Database Generator's skyline enumeration (Algorithm 3) and
	// Algorithm 4's per-pair signatures and scoring. The rest of a round
	// runs serially. 0 selects GOMAXPROCS; 1 runs every loop serially,
	// which every other count reproduces exactly unless the δ time budget
	// truncates enumeration (see dbgen.Generator.SkylinePairs).
	// NewStepSession rejects a count below 0 or above MaxParallelism.
	Parallelism int
}

// MaxParallelism bounds Config.Parallelism. The engine sizes per-worker
// scratch by the count (dbgen.SkylinePairs builds one tupleclass.Cases per
// worker), so a snapshot, WAL record or adopted estate could otherwise make
// the first step after recovery allocate without bound. No real host has
// this many cores.
const MaxParallelism = 1024

// maxEquivCombos bounds the joint class space of one candidate pair that
// the up-front equivalence merge enumerates (see
// tupleclass.Space.IndistinguishableGroups).
const maxEquivCombos = 200000

// DefaultConfig returns the paper's defaults (β = 1, scaled δ).
func DefaultConfig() Config {
	return Config{
		Gen:           dbgen.DefaultOptions(),
		MaxIterations: 64,
	}
}

// IterationStats records one feedback round — the quantities of the paper's
// Table 1, plus the Table 7 breakdown.
type IterationStats struct {
	Iteration    int
	NumQueries   int // |QC| at the start of the round
	NumSubsets   int // k
	SkylinePairs int // |SP|
	Enumerated   int // (STC,DTC) pairs considered by Algorithm 3

	ExecTime       time.Duration // whole round
	Alg3Time       time.Duration
	Alg4Time       time.Duration
	ConcretizeTime time.Duration

	DBCost        int
	ResultCost    int
	AvgResultCost float64
	ChosenSubset  int
	ChosenSize    int
}

// Outcome is the result of a session run.
type Outcome struct {
	// Found reports whether feedback converged on a candidate.
	Found bool
	// Query is the identified target (nil when the remaining candidates are
	// mutually indistinguishable; see Remaining).
	Query *algebra.Query
	// Remaining lists the final candidate set, including all members of a
	// merged equivalence class.
	Remaining []*algebra.Query
	// Ambiguous marks a termination with >1 indistinguishable candidates.
	Ambiguous bool

	Iterations []IterationStats
	TotalTime  time.Duration
	// TotalModCost sums database and result modification costs over all
	// rounds (the "modification cost" of Tables 2, 3 and 6).
	TotalModCost int
	// QueryGenTime is the time attributed to candidate generation by the
	// caller (reported inside the first iteration in the paper's tables).
	QueryGenTime time.Duration
}

// NoneOfThese is the Feedback choice meaning "none of the presented results
// is correct" — the target query is outside the current candidate group
// (Algorithm 1's unstated escape hatch, §2 / §6.2).
const NoneOfThese = -1

// Round is one suspended feedback round: the modified database D' (as edits
// over D), the k distinct candidate results, and which queries produce each.
// The caller inspects it, obtains a choice, and resumes with
// Session.Feedback.
type Round struct {
	// Seq is the session-global round number, 1-based.
	Seq int
	// Iteration is the round number within the current join-schema group —
	// the Iteration of the matching IterationStats entry.
	Iteration int
	// Group and NumGroups locate the current join-schema group (§6.2).
	Group, NumGroups int
	// View carries everything the round presents: D', its edits over D, the
	// distinct results R₁..Rₖ and the query subsets producing them.
	View feedback.View
}

// state tracks the session's position in its lifecycle.
type state uint8

const (
	stateNew      state = iota // Start not yet called
	stateAwaiting              // a Round is pending feedback
	stateDone                  // outcome available (or session failed)
)

// Session drives Algorithm 1 for one (D, R, QC) instance.
type Session struct {
	DB     *db.Database
	R      *relation.Relation
	QC     []*algebra.Query
	Oracle feedback.Oracle
	Config Config

	// joins caches each join-schema group's foreign-key join, made in the
	// encoding scope codes, and keys is D's key index. All three serve every
	// round of the session and are released when it completes.
	joins map[string]*db.Joined
	codes *db.Codes
	keys  *db.Keys
	// space is the tuple-class space beginGroup merged the group over, kept
	// for the group's first round when the merge joined nothing: that round
	// winnows the same candidates in the same order.
	space *tupleclass.Space

	// State machine.
	state      state
	fatal      error // terminal stepping failure; no outcome
	started    time.Time
	out        *Outcome
	groupKeys  []string
	groups     map[string][]*algebra.Query
	gi         int // index into groupKeys
	reps       []*algebra.Query
	members    map[string][]*algebra.Query
	groupIter  int
	seq        int
	pending    *Round
	pendingRes *dbgen.Result
	roundStart time.Time
}

// NewSession validates the inputs and prepares a session driven by an
// oracle (via Run). For the step API alone, use NewStepSession.
func NewSession(d *db.Database, r *relation.Relation, qc []*algebra.Query,
	oracle feedback.Oracle, cfg Config) (*Session, error) {
	if oracle == nil {
		return nil, errors.New("core: nil oracle")
	}
	s, err := NewStepSession(d, r, qc, cfg)
	if err != nil {
		return nil, err
	}
	s.Oracle = oracle
	return s, nil
}

// NewStepSession validates the inputs and prepares a session to be driven
// through the step API (Start / Feedback) without an oracle.
func NewStepSession(d *db.Database, r *relation.Relation, qc []*algebra.Query,
	cfg Config) (*Session, error) {
	if len(qc) == 0 {
		return nil, errors.New("core: empty candidate set")
	}
	// Every round costs each candidate's result against R (editdist), which
	// needs their arities to agree; a restored snapshot may not.
	for _, q := range qc {
		if len(q.Projection) != r.Arity() {
			return nil, fmt.Errorf("core: candidate %s projects %d columns, R has %d",
				q.Name, len(q.Projection), r.Arity())
		}
	}
	if cfg.Parallelism < 0 || cfg.Parallelism > MaxParallelism {
		return nil, fmt.Errorf("core: parallelism %d outside [0, %d]", cfg.Parallelism, MaxParallelism)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 64
	}
	return &Session{DB: d, R: r, QC: qc, Config: cfg,
		joins: map[string]*db.Joined{}, codes: db.NewCodes(d), keys: db.NewKeys(d)}, nil
}

// Run executes Algorithm 1 to completion against the session's Oracle and
// returns the outcome. It is the blocking loop of the paper, re-expressed on
// the step API: every round is produced by Start/Feedback exactly as a
// stepping caller would see it.
func (s *Session) Run() (*Outcome, error) {
	if s.Oracle == nil {
		return nil, errors.New("core: Run requires an oracle; use Start/Feedback")
	}
	// Resume wherever the machine stands: fresh sessions start, restored
	// mid-round sessions continue from their pending round, finished ones
	// just report.
	var round *Round
	switch s.state {
	case stateNew:
		var err error
		round, err = s.Start()
		if err != nil {
			return nil, err
		}
	case stateAwaiting:
		round = s.pending
	case stateDone:
		if s.fatal != nil {
			return nil, fmt.Errorf("core: session failed: %w", s.fatal)
		}
		return s.out, nil
	}
	for round != nil {
		choice, ok, err := s.Oracle.Choose(round.View)
		if err != nil {
			return nil, err
		}
		if !ok {
			choice = NoneOfThese
		} else if choice < 0 {
			return nil, fmt.Errorf("core: oracle chose %d of %d results",
				choice, len(round.View.Results))
		}
		round, _, err = s.Feedback(choice)
		if err != nil {
			return nil, err
		}
	}
	out, done := s.Outcome()
	if !done {
		return nil, errors.New("core: internal: session stopped without outcome")
	}
	return out, nil
}

// Start begins the session and computes its first feedback round. A nil
// Round means the session finished without needing feedback (single
// candidate, or provably indistinguishable candidates); the result is then
// available from Outcome.
func (s *Session) Start() (*Round, error) {
	if s.state != stateNew {
		return nil, errors.New("core: session already started")
	}
	s.started = time.Now()
	s.out = &Outcome{}
	s.buildGroups()
	round, err := s.advance()
	if err != nil {
		s.fatal = err
		s.state = stateDone
		mOutcomeFailed.Inc()
		return nil, err
	}
	return round, nil
}

// buildGroups partitions QC by join schema, larger groups first (§6.2). It
// is deterministic in QC, which lets Restore rebuild the grouping instead of
// serializing it. JoinSchemaKey (like Key in beginGroup/finish and joinFor's
// cache key below) is memoised on the query, so the per-round winnowing loop
// no longer re-sorts and re-joins the table list on every lookup.
func (s *Session) buildGroups() {
	s.groups = map[string][]*algebra.Query{}
	s.groupKeys = nil
	for _, q := range s.QC {
		k := q.JoinSchemaKey()
		if _, ok := s.groups[k]; !ok {
			s.groupKeys = append(s.groupKeys, k)
		}
		s.groups[k] = append(s.groups[k], q)
	}
	sort.SliceStable(s.groupKeys, func(i, j int) bool {
		gi, gj := s.groups[s.groupKeys[i]], s.groups[s.groupKeys[j]]
		if len(gi) != len(gj) {
			return len(gi) > len(gj)
		}
		return s.groupKeys[i] < s.groupKeys[j]
	})
}

// Feedback resumes a suspended session with the user's choice: an index into
// the pending round's Results, or NoneOfThese. It returns the next round, or
// (nil, outcome) when the session finished. An out-of-range choice is an
// error and leaves the session suspended on the same round, so interactive
// callers can retry.
func (s *Session) Feedback(choice int) (*Round, *Outcome, error) {
	switch s.state {
	case stateNew:
		return nil, nil, errors.New("core: session not started")
	case stateDone:
		if s.fatal != nil {
			return nil, nil, fmt.Errorf("core: session failed: %w", s.fatal)
		}
		return nil, nil, errors.New("core: session already finished")
	}
	res := s.pendingRes
	if choice != NoneOfThese && (choice < 0 || choice >= len(res.Partition)) {
		return nil, nil, fmt.Errorf("core: oracle chose %d of %d results",
			choice, len(res.Partition))
	}

	stats := IterationStats{
		Iteration:      s.groupIter,
		NumQueries:     len(s.reps),
		NumSubsets:     len(res.Partition),
		SkylinePairs:   res.SkylinePairs,
		Enumerated:     res.EnumeratedPairs,
		ExecTime:       time.Since(s.roundStart),
		Alg3Time:       res.Alg3Time,
		Alg4Time:       res.Alg4Time,
		ConcretizeTime: res.ConcretizeTime,
		DBCost:         res.DBCost,
		ResultCost:     res.ResultCost,
		AvgResultCost:  res.AvgResultCost,
	}
	if choice == NoneOfThese {
		// None of the presented results is correct: the target is not in
		// this group (§2 / §6.2); stop winnowing it and move on.
		s.out.Iterations = append(s.out.Iterations, stats)
		s.out.TotalModCost += res.DBCost + res.ResultCost
		s.reps, s.members = nil, nil
		s.gi++
	} else {
		stats.ChosenSubset = choice
		stats.ChosenSize = len(res.Partition[choice])
		s.out.Iterations = append(s.out.Iterations, stats)
		s.out.TotalModCost += res.DBCost + res.ResultCost
		next := make([]*algebra.Query, 0, len(res.Partition[choice]))
		for _, qi := range res.Partition[choice] {
			next = append(next, s.reps[qi])
		}
		s.reps = next
	}
	s.pending, s.pendingRes = nil, nil

	round, err := s.advance()
	if err != nil {
		// The choice was consumed but the session cannot continue; it is
		// terminally failed (not suspended — there is no round to retry).
		s.fatal = err
		s.state = stateDone
		mOutcomeFailed.Inc()
		return nil, nil, err
	}
	if round != nil {
		return round, nil, nil
	}
	return nil, s.out, nil
}

// Pending returns the round awaiting feedback, or nil.
func (s *Session) Pending() *Round {
	return s.pending
}

// Seq returns the session-global number of the most recently generated
// round (0 before the first round). When the session is suspended this
// equals Pending().Seq; once it finishes, every round up to Seq has been
// answered. The service tier uses it to make feedback idempotent across
// crash-recovery replays.
func (s *Session) Seq() int { return s.seq }

// Err returns the fatal stepping error of a failed session, or nil.
func (s *Session) Err() error { return s.fatal }

// Outcome returns the final outcome once the session has finished. A
// session that failed terminally (see Err) has no outcome.
func (s *Session) Outcome() (*Outcome, bool) {
	if s.state != stateDone || s.fatal != nil {
		return nil, false
	}
	return s.out, true
}

// advance moves the state machine forward until a round needs feedback
// (returning it) or the session completes (returning nil).
func (s *Session) advance() (*Round, error) {
	for {
		if s.reps == nil {
			if s.gi >= len(s.groupKeys) {
				// Every group exhausted without convergence: not found.
				mOutcomeNotFound.Inc()
				s.complete()
				return nil, nil
			}
			if err := s.beginGroup(); err != nil {
				return nil, err
			}
		}
		if len(s.reps) <= 1 {
			s.finish()
			return nil, nil
		}
		s.groupIter++
		if s.groupIter > s.Config.MaxIterations {
			return nil, fmt.Errorf("core: exceeded %d iterations with %d candidates left",
				s.Config.MaxIterations, len(s.reps))
		}
		t0 := time.Now()
		joined, err := s.joinFor(s.reps[0])
		if err != nil {
			return nil, err
		}
		space := s.space
		s.space = nil
		if space == nil {
			if space, err = dbgen.NewSpace(joined, s.reps); err != nil {
				return nil, err
			}
		}
		gen, err := dbgen.New(s.keys, joined, space, s.R, s.Config.Gen, s.Config.Parallelism)
		if err != nil {
			return nil, err
		}
		res, err := gen.Generate()
		if errors.Is(err, dbgen.ErrNoSplit) {
			// Remaining candidates cannot be separated: ambiguous success.
			s.finish()
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		mRoundGen.ObserveDuration(time.Since(t0))
		s.seq++
		s.pendingRes = res
		s.roundStart = t0
		s.pending = &Round{
			Seq:       s.seq,
			Iteration: s.groupIter,
			Group:     s.gi,
			NumGroups: len(s.groupKeys),
			View: feedback.View{
				Iteration: s.groupIter,
				BaseDB:    s.DB,
				BaseR:     s.R,
				Edits:     res.Edits,
				Results:   res.Results,
				Groups:    res.Partition,
				Queries:   s.reps,
			},
		}
		s.state = stateAwaiting
		return s.pending, nil
	}
}

// beginGroup prepares winnowing of the current join-schema group: computes
// (or reuses) its foreign-key join and pre-merges candidates that no
// reachable modification can distinguish.
func (s *Session) beginGroup() error {
	qc := s.groups[s.groupKeys[s.gi]]
	joined, err := s.joinFor(qc[0])
	if err != nil {
		return err
	}
	s.groupIter = 0
	s.members = map[string][]*algebra.Query{}
	s.reps = qc
	if len(qc) == 1 {
		s.members[qc[0].Key()] = []*algebra.Query{qc[0]}
		return nil
	}
	// The Database Generator's own space: join-key columns are structural
	// and never modified, so candidates that differ only on them are
	// indistinguishable by any reachable database and merge here instead of
	// burning winnowing rounds that must end in ErrNoSplit.
	space, err := dbgen.NewSpace(joined, qc)
	if err != nil {
		return err
	}
	eq := space.IndistinguishableGroups(maxEquivCombos)
	if len(eq) == len(qc) {
		s.space = space // the first round winnows qc itself
	}
	s.reps = s.reps[:0:0]
	for _, grp := range eq {
		rep := qc[grp[0]]
		s.reps = append(s.reps, rep)
		k := rep.Key()
		for _, qi := range grp {
			s.members[k] = append(s.members[k], qc[qi])
		}
	}
	return nil
}

// finish expands the surviving representatives into their equivalence-class
// members, fills the outcome and completes the session.
func (s *Session) finish() {
	var remaining []*algebra.Query
	for _, rep := range s.reps {
		ms := s.members[rep.Key()]
		if len(ms) == 0 {
			ms = []*algebra.Query{rep}
		}
		remaining = append(remaining, ms...)
	}
	s.out.Found = true
	s.out.Remaining = remaining
	if len(remaining) == 1 {
		s.out.Query = remaining[0]
		mOutcomeIdentified.Inc()
	} else {
		s.out.Ambiguous = true
		mOutcomeAmbiguous.Inc()
	}
	s.complete()
}

// complete stamps the total time and transitions to the terminal state. A
// finished session never steps again, so it drops its joins and key index,
// which a service would otherwise keep resident until the session expires.
func (s *Session) complete() {
	s.out.TotalTime = time.Since(s.started)
	mSessionRounds.Observe(int64(len(s.out.Iterations)))
	s.state = stateDone
	s.pending, s.pendingRes = nil, nil
	s.joins, s.codes, s.keys, s.space = nil, nil, nil, nil
}

// joinFor returns the (cached) foreign-key join for the query's schema.
// Because the per-round generators all receive this shared *db.Joined, its
// lazily-memoised Columnar view (the batch engine's dictionary-encoded scan
// input, DESIGN.md §9) is computed once per join-schema group and reused by
// every winnowing round of the group.
func (s *Session) joinFor(q *algebra.Query) (*db.Joined, error) {
	k := q.JoinSchemaKey()
	if j, ok := s.joins[k]; ok {
		return j, nil
	}
	j, err := s.codes.Join(q.Tables)
	if err != nil {
		return nil, err
	}
	s.joins[k] = j
	return j, nil
}
