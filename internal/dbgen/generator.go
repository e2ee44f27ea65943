// Package dbgen implements the paper's Database Generator module (§5):
// given the initial database D (via its foreign-key join) and the remaining
// candidate queries QC, it produces a modified database D' that partitions
// QC into result-distinct subsets while minimising the user-effort cost
// model of §3.
//
// The module follows Algorithm 2: enumerate skyline (STC, DTC) pairs
// (Algorithm 3, Skyline-STC-DTC-Pairs), pick a good subset of pairs
// (Algorithm 4, Pick-STC-DTC-Subset), then concretize the chosen abstract
// modifications into actual cell edits — preferring tuples without join
// side effects (§5.4.1) and rejecting edits that violate integrity
// constraints (§6.3).
package dbgen

import (
	"errors"
	"fmt"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/cost"
	"qfe/internal/db"
	"qfe/internal/editdist"
	"qfe/internal/par"
	"qfe/internal/relation"
	"qfe/internal/tupleclass"
)

// Budget bounds Algorithm 3's enumeration: the paper's time threshold δ
// plus a deterministic pair-count bound, which the service's WAL mode, the
// simulator and the tests use because a time budget makes the rounds depend
// on the machine.
type Budget struct {
	MaxDuration time.Duration // δ; 0 means unlimited
	MaxPairs    int           // 0 means unlimited
}

// Strategy selects how Algorithm 4 ranks candidate pair sets.
type Strategy uint8

const (
	// StrategyCostModel is the paper's approach: minimise the Eq. 5 user-
	// effort cost, tie-breaking by balance.
	StrategyCostModel Strategy = iota
	// StrategyMaxPartitions is the §7.7 user-study alternative: maximise
	// the number of partitioned query subsets (fewer iterations, but more
	// per-round reading effort).
	StrategyMaxPartitions
)

// Options configures the generator.
type Options struct {
	Cost     cost.Params
	Budget   Budget
	Strategy Strategy
	// MaxFrontier caps Algorithm 4's per-level frontier |OPᵢ| as a safety
	// valve against its O(2^|SP|) worst case (0 = unlimited).
	MaxFrontier int
	// MaxSetsEvaluated caps the total number of candidate sets Algorithm 4
	// scores (0 = 50000).
	MaxSetsEvaluated int
}

// maxCandidateSets is how many optimal sets Generate tries to concretize
// before giving up (alternatives are needed when a set's concrete side
// effects destroy its predicted partition).
const maxCandidateSets = 8

// DefaultOptions mirrors the paper's defaults: β = 1, δ = 1s scaled to our
// engine (see DESIGN.md §2): 10ms.
func DefaultOptions() Options {
	return Options{
		Cost:             cost.DefaultParams(),
		Budget:           Budget{MaxDuration: 10 * time.Millisecond},
		MaxFrontier:      64,
		MaxSetsEvaluated: 50000,
	}
}

// ErrNoSplit reports that no reachable modification distinguishes the
// remaining candidate queries — they are equivalent over the tuple-class
// space.
var ErrNoSplit = errors.New("dbgen: no database modification distinguishes the remaining candidates")

// errNotRealizable reports that no pair of a chosen set survived
// concretization (integrity-constraint rejections, conflicting base rows).
// It is the one concretize failure Generate may degrade on; any other error
// is a genuine engine fault and propagates.
var errNotRealizable = errors.New("dbgen: no pair of the chosen set could be concretized validly")

// Generator winnows one candidate set against one database. It is built
// once per QFE iteration (the space depends on QC).
type Generator struct {
	// Keys is the key index of D, which concretize asks whether an edit
	// set keeps every key valid.
	Keys    *db.Keys
	Joined  *db.Joined
	Space   *tupleclass.Space
	Queries []*algebra.Query
	R       *relation.Relation
	Opts    Options

	// workers is the worker count of the round's parallel loops: skyline
	// (STC, DTC) enumeration, Algorithm 4's per-pair case masks and its
	// per-level scoring pass. Candidate evaluation and the concrete
	// partitioning run serially. Every count reproduces the one-worker
	// result exactly, unless the δ time budget truncates enumeration (see
	// SkylinePairs).
	workers int

	baseResults []*relation.Relation // Q(D) per query (= R for true candidates)
	srcClasses  []tupleclass.SourceClass
	srcRows     map[string][]int
	// srcMatch[i] is srcClasses[i]'s query match mask, shared by every pair
	// Algorithms 3 and 4 build from that source class.
	srcMatch [][]uint64

	// Algorithm 4 stage times of the latest PickSubsets call (observe-only;
	// copied into Result by Generate).
	alg4Enum, alg4Score, alg4TopK time.Duration
}

// NewSpace builds the tuple-class space a round winnows: the candidate
// queries' space over the join's columnar view. Join-key columns are
// structural: an edit to one changes which base tuples join, which the delta
// model (in-place joined-tuple replacement, Lemma 5.1) cannot predict. They
// are frozen so no enumerated modification touches them; candidates
// differing only there surface as ErrNoSplit (provably indistinguishable
// within the reachable modification space).
func NewSpace(joined *db.Joined, queries []*algebra.Query) (*tupleclass.Space, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("dbgen: empty candidate set")
	}
	space, err := tupleclass.NewSpace(joined.Columnar(), queries)
	if err != nil {
		return nil, err
	}
	space.Freeze(joined.KeyCols)
	return space, nil
}

// New prepares a generator for the database behind the key index keys, its
// precomputed join, the round's space (NewSpace over the join, whose
// queries are the candidates) and target result R. A session passes the
// same index to every round's generator. parallelism is the worker count of
// its parallel loops: 0 selects GOMAXPROCS, 1 runs them serially in index
// order.
func New(keys *db.Keys, joined *db.Joined, space *tupleclass.Space,
	r *relation.Relation, opts Options, parallelism int) (*Generator, error) {
	queries := space.Queries
	mCandidates.Observe(int64(len(queries)))
	g := &Generator{Keys: keys, Joined: joined, Space: space, Queries: queries, R: r, Opts: opts,
		workers: par.Workers(parallelism)}
	var err error
	if g.baseResults, err = g.evaluateBase(); err != nil {
		return nil, err
	}
	g.srcClasses = space.SourceClasses()
	g.srcRows = make(map[string][]int, len(g.srcClasses))
	g.srcMatch = make([][]uint64, len(g.srcClasses))
	for i, sc := range g.srcClasses {
		g.srcRows[sc.Key] = sc.Rows
		g.srcMatch[i] = space.MatchMask(sc.Class)
	}
	return g, nil
}

// evaluateBase computes Q(D) for every candidate on the shared join in one
// shared columnar scan (algebra.BatchEvaluateOnJoined over the join's
// memoised Columnar) — the per-round evaluation the winnowing loop repeats
// with a shrinking QC.
//
// DISTINCT candidates are evaluated under bag semantics here: the stored
// base feeds the incremental delta path, where set membership after a
// modification depends on how many joined rows still produce a tuple — a
// collapsed base would drop a tuple as soon as any one of its duplicate
// producers is edited away. The collapse happens at materialisation
// (partitionConcrete) and inside DeltaFingerprint's set branch.
func (g *Generator) evaluateBase() ([]*relation.Relation, error) {
	defer func(start time.Time) { mBatchEval.ObserveDuration(time.Since(start)) }(time.Now())
	// Bag-semantics view of the candidate set (clones only for DISTINCT).
	qs := make([]*algebra.Query, len(g.Queries))
	for i, q := range g.Queries {
		if q.Distinct {
			bag := q.Clone()
			bag.Distinct = false
			q = bag
		}
		qs[i] = q
	}
	return algebra.BatchEvaluateOnJoined(qs, g.Joined.Columnar())
}

// Result is the outcome of one Database-Generator invocation, carrying the
// modified database as edits over D and the statistics the paper reports per
// round (Table 1, Table 4, Table 7).
type Result struct {
	Edits []db.CellEdit
	Pairs []tupleclass.Pair // the concretized Sopt

	// Partition groups query indexes by their result on D′; Results holds
	// one representative result relation per group.
	Partition [][]int
	Results   []*relation.Relation

	// Costs, concrete (post side effects).
	DBCost        int // minEdit(D,D') = number of cell edits
	NumRelations  int // n of Eq. 3
	ResultCost    int // Σᵢ minEdit(R, Rᵢ)
	AvgResultCost float64

	// Search statistics.
	SkylinePairs    int // |SP|
	EnumeratedPairs int
	X               int // Lemma 3.1's x
	Alg3Time        time.Duration
	Alg4Time        time.Duration
	// Alg4Time split by pass (DESIGN.md §10): listing the candidate sets,
	// scoring their distinct signature multisets, and the in-order
	// prune/rank replay.
	Alg4EnumTime   time.Duration
	Alg4ScoreTime  time.Duration
	Alg4TopKTime   time.Duration
	ConcretizeTime time.Duration
}

// Generate runs Algorithm 2 end to end and returns a modified database that
// concretely partitions the candidates into at least two groups, or
// ErrNoSplit.
func (g *Generator) Generate() (*Result, error) {
	t0 := time.Now()
	sp, stats := g.SkylinePairs()
	alg3 := time.Since(t0)
	mSkyline.ObserveDuration(alg3)
	scanned := false // whether sp already is the unbudgeted scan's output
	if len(sp) == 0 {
		// Budgeted enumeration found nothing; do an unbudgeted scan for any
		// splitting pair before declaring equivalence.
		sp = g.EnumerateScoredPairs(64)
		scanned = true
		if len(sp) == 0 {
			mNoSplit.Inc()
			return nil, ErrNoSplit
		}
	}
	mSkylinePairs.Observe(int64(len(sp)))

	t1 := time.Now()
	candidates := g.PickSubsets(sp, stats.X)
	alg4 := time.Since(t1)
	mAlg4.ObserveDuration(alg4)

	t2 := time.Now()
	for _, cand := range candidates {
		res, err := g.concretize(cand.Pairs)
		if err != nil {
			if !errors.Is(err, errNotRealizable) {
				// Engine fault, not a constraint rejection: surface it
				// instead of masking it with a coarser split.
				return nil, fmt.Errorf("dbgen: concretize: %w", err)
			}
			continue
		}
		if len(res.Partition) < 2 {
			continue // side effects collapsed the predicted split; try next
		}
		res.SkylinePairs = len(sp)
		res.EnumeratedPairs = stats.Enumerated
		res.X = stats.X
		res.Alg3Time = alg3
		res.Alg4Time = alg4
		res.ConcretizeTime = time.Since(t2)
		g.observeResult(res, t0)
		return res, nil
	}
	// None of the optimal sets was realizable (integrity-constraint
	// rejections or conflicting base rows). Rather than fail the round, fall
	// back to realizing any single splitting pair: a coarse binary split
	// keeps winnowing moving, matching the paper's behaviour under budget
	// truncation. Only when no enumerated pair concretizes at all are the
	// remaining candidates unseparable within the reachable, constraint-
	// respecting modification space — which is ErrNoSplit, not a failure.
	fallback := append([]ScoredPair(nil), sp...)
	if len(fallback) > 128 {
		fallback = fallback[:128]
	}
	if !scanned {
		fallback = append(fallback, g.EnumerateScoredPairs(64)...)
	}
	tried := make(map[string]bool, len(fallback))
	for _, p := range fallback {
		if k := p.Pair.Key(); tried[k] {
			continue
		} else {
			tried[k] = true
		}
		res, err := g.concretize([]tupleclass.Pair{p.Pair})
		if err != nil {
			if !errors.Is(err, errNotRealizable) {
				return nil, fmt.Errorf("dbgen: concretize: %w", err)
			}
			continue
		}
		if len(res.Partition) < 2 {
			continue
		}
		res.SkylinePairs = len(sp)
		res.EnumeratedPairs = stats.Enumerated
		res.X = stats.X
		res.Alg3Time = alg3
		res.Alg4Time = alg4
		res.ConcretizeTime = time.Since(t2)
		g.observeResult(res, t0)
		return res, nil
	}
	mNoSplit.Inc()
	return nil, ErrNoSplit
}

// observeResult stamps the Algorithm 4 stage breakdown on a successful
// round's Result and feeds the round-phase metrics.
func (g *Generator) observeResult(res *Result, start time.Time) {
	res.Alg4EnumTime = g.alg4Enum
	res.Alg4ScoreTime = g.alg4Score
	res.Alg4TopKTime = g.alg4TopK
	mConcretize.ObserveDuration(res.ConcretizeTime)
	mRounds.Inc()
	mGenerate.ObserveDuration(time.Since(start))
}

// partitionConcrete evaluates every query incrementally against the edits
// and groups them by result fingerprint, in query order. The Lemma 5.1
// deltas for the whole candidate set come from one shared pass over the
// modified rows (algebra.BatchDeltaOnJoined: unique terms evaluated once per
// row, not once per query), and the fingerprints from incremental
// maintenance of each base result (Query.DeltaFingerprint) — re-scanning
// nothing. Each block's result is then materialised from its first query and
// costed against R.
func (g *Generator) partitionConcrete(edits []db.CellEdit) ([][]int, []*relation.Relation, []int, error) {
	modified, err := g.modifiedJoinedRows(edits)
	if err != nil {
		return nil, nil, nil, err
	}
	deltas, err := algebra.BatchDeltaOnJoined(g.Queries, g.Joined.Columnar(), modified)
	if err != nil {
		return nil, nil, nil, err
	}

	groups := map[algebra.ResultFP][]int{}
	order := []algebra.ResultFP{}
	for qi, q := range g.Queries {
		fp := q.DeltaFingerprint(g.baseResults[qi], deltas[qi])
		if _, ok := groups[fp]; !ok {
			order = append(order, fp)
		}
		groups[fp] = append(groups[fp], qi)
	}

	parts := make([][]int, len(order))
	results := make([]*relation.Relation, len(order))
	resultCosts := make([]int, len(order))
	for bi, fp := range order {
		qs := groups[fp]
		parts[bi] = qs
		rep := qs[0]
		ri := algebra.ApplyDelta(g.baseResults[rep], deltas[rep])
		if g.Queries[rep].Distinct {
			ri = ri.Distinct()
		}
		results[bi] = ri
		resultCosts[bi] = editdist.MinEdit(g.R, ri)
	}
	return parts, results, resultCosts, nil
}

// modifiedJoinedRows maps base-table cell edits onto the joined relation:
// for every affected joined row it builds the post-edit tuple, including all
// side-effect rows discovered through the join index.
func (g *Generator) modifiedJoinedRows(edits []db.CellEdit) (map[int]relation.Tuple, error) {
	modified := map[int]relation.Tuple{}
	for _, e := range edits {
		// Locate the joined column fed by this base column.
		colIdx := -1
		for ci, ref := range g.Joined.Cols {
			if ref.Table == e.Table && ref.Column == e.Column {
				colIdx = ci
				break
			}
		}
		if colIdx < 0 {
			return nil, fmt.Errorf("dbgen: edit %s targets a column outside the join", e)
		}
		for _, row := range g.Joined.TuplesFromBase(e.Table, e.Row) {
			t, ok := modified[row]
			if !ok {
				t = g.Joined.Row(row)
			}
			t[colIdx] = e.Value
			modified[row] = t
		}
	}
	return modified, nil
}
