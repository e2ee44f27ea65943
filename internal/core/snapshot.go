package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
)

// SnapshotVersion identifies the snapshot wire format. Restore rejects
// snapshots with a different version rather than guessing.
const SnapshotVersion = 1

// Snapshot is the serializable state of a Session, sufficient to resume it
// in another process: the inputs (D, R, QC), the tuning knobs, the machine
// position (group, iteration, surviving representatives and their merged
// equivalence classes), the outcome accumulated so far, and — when the
// session is suspended on a round — the generated round itself, so a restore
// never has to re-run the Database Generator (whose δ time budget makes
// regeneration machine-dependent).
//
// Queries are referenced by index into QC throughout; the join-schema
// grouping is deterministic in QC and is rebuilt on restore rather than
// stored.
type Snapshot struct {
	Version int            `json:"version"`
	Config  ConfigSnapshot `json:"config"`

	DB codec.Database `json:"db"`
	R  codec.Relation `json:"r"`
	QC []codec.Query  `json:"qc"`

	// State is "new", "awaiting", "done" or "failed".
	State string `json:"state"`
	// Fatal carries the stepping error of a failed session, so a restore
	// cannot mistake an engine failure for a legitimate not-found outcome.
	Fatal      string `json:"fatal,omitempty"`
	GroupIndex int    `json:"groupIndex"`
	GroupIter  int    `json:"groupIter"`
	Seq        int    `json:"seq"`
	// Reps indexes the surviving representatives into QC; Members holds, per
	// representative, the indexes of its merged equivalence class.
	Reps    []int   `json:"reps,omitempty"`
	Members [][]int `json:"members,omitempty"`

	// ElapsedNs is the session wall-clock consumed before the snapshot, so
	// Outcome.TotalTime keeps accumulating across restarts. RoundElapsedNs
	// is the same for the pending round's ExecTime.
	ElapsedNs      int64 `json:"elapsedNs"`
	RoundElapsedNs int64 `json:"roundElapsedNs,omitempty"`

	Outcome *OutcomeSnapshot `json:"outcome,omitempty"`
	Pending *RoundSnapshot   `json:"pending,omitempty"`
}

// ConfigSnapshot is the serializable form of Config. Snapshots and WAL
// records written before the search caps became constants carry five more
// fields (mergeEquivalent, maxEquivClasses, maxSkylinePairs,
// maxCandidateSets, genParallelism); decoding ignores them, and every
// writer outside the tests wrote the values the constants keep.
type ConfigSnapshot struct {
	MaxIterations int     `json:"maxIterations"`
	Parallelism   int     `json:"parallelism"`
	Beta          float64 `json:"beta"`
	BudgetNs      int64   `json:"budgetNs"`
	BudgetPairs   int     `json:"budgetPairs"`
	Strategy      uint8   `json:"strategy"`
	MaxFrontier   int     `json:"maxFrontier"`
	MaxSetsEval   int     `json:"maxSetsEvaluated"`
}

// SnapshotConfig captures cfg in the serializable form.
func SnapshotConfig(cfg Config) ConfigSnapshot {
	return ConfigSnapshot{
		MaxIterations: cfg.MaxIterations,
		Parallelism:   cfg.Parallelism,
		Beta:          cfg.Gen.Cost.Beta,
		BudgetNs:      int64(cfg.Gen.Budget.MaxDuration),
		BudgetPairs:   cfg.Gen.Budget.MaxPairs,
		Strategy:      uint8(cfg.Gen.Strategy),
		MaxFrontier:   cfg.Gen.MaxFrontier,
		MaxSetsEval:   cfg.Gen.MaxSetsEvaluated,
	}
}

// Config rebuilds the runtime configuration.
func (cs ConfigSnapshot) Config() Config {
	cfg := Config{
		MaxIterations: cs.MaxIterations,
		Parallelism:   cs.Parallelism,
		Gen: dbgen.Options{
			Budget: dbgen.Budget{
				MaxDuration: time.Duration(cs.BudgetNs),
				MaxPairs:    cs.BudgetPairs,
			},
			Strategy:         dbgen.Strategy(cs.Strategy),
			MaxFrontier:      cs.MaxFrontier,
			MaxSetsEvaluated: cs.MaxSetsEval,
		},
	}
	cfg.Gen.Cost.Beta = cs.Beta
	return cfg
}

// OutcomeSnapshot serializes an Outcome with queries as indexes into QC.
type OutcomeSnapshot struct {
	Found        bool             `json:"found"`
	Ambiguous    bool             `json:"ambiguous"`
	Query        int              `json:"query"` // index into QC, -1 if none
	Remaining    []int            `json:"remaining,omitempty"`
	Iterations   []IterationStats `json:"iterations,omitempty"`
	TotalTimeNs  int64            `json:"totalTimeNs"`
	TotalModCost int              `json:"totalModCost"`
	QueryGenNs   int64            `json:"queryGenNs"`
}

// RoundSnapshot serializes a suspended round: the edits that produce D', the
// per-result relations, the partition of representative indexes, and the
// generator statistics that feed the round's IterationStats.
type RoundSnapshot struct {
	Edits     []codec.CellEdit `json:"edits"`
	Results   []codec.Relation `json:"results"`
	Partition [][]int          `json:"partition"`

	DBCost          int     `json:"dbCost"`
	NumRelations    int     `json:"numRelations"`
	ResultCost      int     `json:"resultCost"`
	AvgResultCost   float64 `json:"avgResultCost"`
	SkylinePairs    int     `json:"skylinePairs"`
	EnumeratedPairs int     `json:"enumeratedPairs"`
	X               int     `json:"x"`
	Alg3Ns          int64   `json:"alg3Ns"`
	Alg4Ns          int64   `json:"alg4Ns"`
	ConcretizeNs    int64   `json:"concretizeNs"`
}

// queryIndex locates q inside qc by pointer identity, falling back to the
// structural key (snapshots taken after a decode round-trip hold distinct
// pointers for structurally identical queries).
func queryIndex(qc []*algebra.Query, q *algebra.Query) (int, error) {
	for i, c := range qc {
		if c == q {
			return i, nil
		}
	}
	key := q.Key()
	for i, c := range qc {
		if c.Key() == key {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: snapshot: query %s not in candidate set", q.Name)
}

// Snapshot captures the session's current state. It is valid in every
// lifecycle phase except between Feedback accepting a choice and the next
// round being ready (a window that never escapes a single call).
func (s *Session) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		Version:    SnapshotVersion,
		DB:         codec.EncodeDatabase(s.DB),
		R:          codec.EncodeRelation(s.R),
		QC:         codec.EncodeQueries(s.QC),
		GroupIndex: s.gi,
		GroupIter:  s.groupIter,
		Seq:        s.seq,
		Config:     SnapshotConfig(s.Config),
	}
	switch {
	case s.state == stateNew:
		snap.State = "new"
		return snap, nil
	case s.state == stateAwaiting:
		snap.State = "awaiting"
	case s.fatal != nil:
		snap.State = "failed"
		snap.Fatal = s.fatal.Error()
	default:
		snap.State = "done"
	}
	snap.ElapsedNs = int64(time.Since(s.started))

	for _, rep := range s.reps {
		ri, err := queryIndex(s.QC, rep)
		if err != nil {
			return nil, err
		}
		snap.Reps = append(snap.Reps, ri)
		var grp []int
		for _, m := range s.members[rep.Key()] {
			mi, err := queryIndex(s.QC, m)
			if err != nil {
				return nil, err
			}
			grp = append(grp, mi)
		}
		snap.Members = append(snap.Members, grp)
	}

	if s.out != nil {
		os := &OutcomeSnapshot{
			Found:        s.out.Found,
			Ambiguous:    s.out.Ambiguous,
			Query:        -1,
			Iterations:   append([]IterationStats(nil), s.out.Iterations...),
			TotalTimeNs:  int64(s.out.TotalTime),
			TotalModCost: s.out.TotalModCost,
			QueryGenNs:   int64(s.out.QueryGenTime),
		}
		if s.out.Query != nil {
			qi, err := queryIndex(s.QC, s.out.Query)
			if err != nil {
				return nil, err
			}
			os.Query = qi
		}
		for _, q := range s.out.Remaining {
			qi, err := queryIndex(s.QC, q)
			if err != nil {
				return nil, err
			}
			os.Remaining = append(os.Remaining, qi)
		}
		snap.Outcome = os
	}

	if s.state == stateAwaiting {
		res := s.pendingRes
		rs := &RoundSnapshot{
			Edits:           codec.EncodeEdits(res.Edits),
			Partition:       res.Partition,
			DBCost:          res.DBCost,
			NumRelations:    res.NumRelations,
			ResultCost:      res.ResultCost,
			AvgResultCost:   res.AvgResultCost,
			SkylinePairs:    res.SkylinePairs,
			EnumeratedPairs: res.EnumeratedPairs,
			X:               res.X,
			Alg3Ns:          int64(res.Alg3Time),
			Alg4Ns:          int64(res.Alg4Time),
			ConcretizeNs:    int64(res.ConcretizeTime),
		}
		for _, r := range res.Results {
			rs.Results = append(rs.Results, codec.EncodeRelation(r))
		}
		snap.Pending = rs
		snap.RoundElapsedNs = int64(time.Since(s.roundStart))
	}
	return snap, nil
}

// UnmarshalSnapshot parses a JSON snapshot.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return &snap, nil
}

// Restore rebuilds a session from a snapshot. The oracle may be nil for
// step-API use.
func Restore(snap *Snapshot, oracle feedback.Oracle) (*Session, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	d, err := codec.DecodeDatabase(snap.DB)
	if err != nil {
		return nil, err
	}
	r, err := codec.DecodeRelation(snap.R)
	if err != nil {
		return nil, err
	}
	qc, err := codec.DecodeQueries(snap.QC)
	if err != nil {
		return nil, err
	}
	s, err := NewStepSession(d, r, qc, snap.Config.Config())
	if err != nil {
		return nil, err
	}
	s.Oracle = oracle
	if snap.State == "new" {
		return s, nil
	}

	s.buildGroups()
	s.gi = snap.GroupIndex
	s.groupIter = snap.GroupIter
	s.seq = snap.Seq
	s.started = time.Now().Add(-time.Duration(snap.ElapsedNs))

	inRange := func(i int, what string) error {
		if i < 0 || i >= len(qc) {
			return fmt.Errorf("core: snapshot: %s index %d out of range (|QC| = %d)", what, i, len(qc))
		}
		return nil
	}
	if len(snap.Reps) > 0 {
		if len(snap.Members) != len(snap.Reps) {
			return nil, fmt.Errorf("core: snapshot: %d member groups for %d reps",
				len(snap.Members), len(snap.Reps))
		}
		s.members = map[string][]*algebra.Query{}
		for i, ri := range snap.Reps {
			if err := inRange(ri, "rep"); err != nil {
				return nil, err
			}
			rep := qc[ri]
			s.reps = append(s.reps, rep)
			// Reps with one key share one member list, which Snapshot
			// writes out once per rep: assign it, never append to it.
			var members []*algebra.Query
			for _, mi := range snap.Members[i] {
				if err := inRange(mi, "member"); err != nil {
					return nil, err
				}
				members = append(members, qc[mi])
			}
			s.members[rep.Key()] = members
		}
	}

	s.out = &Outcome{}
	if snap.Outcome != nil {
		s.out.Found = snap.Outcome.Found
		s.out.Ambiguous = snap.Outcome.Ambiguous
		s.out.Iterations = append([]IterationStats(nil), snap.Outcome.Iterations...)
		s.out.TotalTime = time.Duration(snap.Outcome.TotalTimeNs)
		s.out.TotalModCost = snap.Outcome.TotalModCost
		s.out.QueryGenTime = time.Duration(snap.Outcome.QueryGenNs)
		if snap.Outcome.Query >= 0 {
			if err := inRange(snap.Outcome.Query, "outcome query"); err != nil {
				return nil, err
			}
			s.out.Query = qc[snap.Outcome.Query]
		}
		for _, qi := range snap.Outcome.Remaining {
			if err := inRange(qi, "remaining"); err != nil {
				return nil, err
			}
			s.out.Remaining = append(s.out.Remaining, qc[qi])
		}
	}

	switch snap.State {
	case "done":
		s.state = stateDone
		return s, nil
	case "failed":
		s.state = stateDone
		// The message is kept as recorded: a prefix here would grow by one
		// at every checkpoint of a restored failed session.
		msg := snap.Fatal
		if msg == "" {
			msg = "core: failed session restored without its error"
		}
		s.fatal = errors.New(msg)
		return s, nil
	case "awaiting":
		// fall through below
	default:
		return nil, fmt.Errorf("core: snapshot: unknown state %q", snap.State)
	}

	if snap.Pending == nil {
		return nil, fmt.Errorf("core: snapshot: awaiting state without pending round")
	}
	if s.gi < 0 || s.gi >= len(s.groupKeys) {
		return nil, fmt.Errorf("core: snapshot: pending round in group %d of %d", s.gi, len(s.groupKeys))
	}
	edits, err := codec.DecodeEdits(snap.Pending.Edits)
	if err != nil {
		return nil, err
	}
	if err := d.CheckEdits(edits); err != nil {
		return nil, fmt.Errorf("core: snapshot: pending edits: %w", err)
	}
	res := &dbgen.Result{
		Edits:           edits,
		Partition:       snap.Pending.Partition,
		DBCost:          snap.Pending.DBCost,
		NumRelations:    snap.Pending.NumRelations,
		ResultCost:      snap.Pending.ResultCost,
		AvgResultCost:   snap.Pending.AvgResultCost,
		SkylinePairs:    snap.Pending.SkylinePairs,
		EnumeratedPairs: snap.Pending.EnumeratedPairs,
		X:               snap.Pending.X,
		Alg3Time:        time.Duration(snap.Pending.Alg3Ns),
		Alg4Time:        time.Duration(snap.Pending.Alg4Ns),
		ConcretizeTime:  time.Duration(snap.Pending.ConcretizeNs),
	}
	for _, rel := range snap.Pending.Results {
		dr, err := codec.DecodeRelation(rel)
		if err != nil {
			return nil, err
		}
		res.Results = append(res.Results, dr)
	}
	if len(res.Partition) != len(res.Results) {
		return nil, fmt.Errorf("core: snapshot: %d partition blocks for %d results",
			len(res.Partition), len(res.Results))
	}
	// Partition entries index the surviving representatives; a corrupt
	// state file must fail here, not panic inside the next Feedback.
	for bi, block := range res.Partition {
		for _, qi := range block {
			if qi < 0 || qi >= len(s.reps) {
				return nil, fmt.Errorf("core: snapshot: partition block %d references rep %d of %d",
					bi, qi, len(s.reps))
			}
		}
	}
	s.pendingRes = res
	s.roundStart = time.Now().Add(-time.Duration(snap.RoundElapsedNs))
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
	return s, nil
}
