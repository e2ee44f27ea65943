// Package qfe is a from-scratch Go implementation of Query From Examples
// (QFE) — "Query From Examples: An Iterative, Data-Driven Approach to Query
// Construction", Hao Li, Chee-Yong Chan, David Maier, PVLDB 8(13), 2015.
//
// QFE helps users who cannot write SQL construct select-project-join
// queries: the user supplies one example database-result pair (D, R); a
// query generator reverse-engineers candidate queries with Q(D) = R; QFE
// then winnows the candidates by showing the user minimally-modified
// databases D′ whose results distinguish them, until one query (or one
// class of provably indistinguishable queries) remains.
//
// The package re-exports the library's public surface:
//
//   - the relational substrate (Relation, Database, foreign-key joins),
//   - the SPJ query algebra and a SQL parser for it,
//   - the QBO-style candidate generator,
//   - the cost-model-driven database generator,
//   - feedback oracles (interactive, worst-case, target-following,
//     simulated user), and
//   - the Session driver implementing the paper's Algorithm 1.
//
// Quick start:
//
//	d := qfe.NewDatabase()
//	d.MustAddTable(employees)               // *qfe.Relation
//	qc, _ := qfe.GenerateCandidates(d, r, qfe.DefaultGenerateConfig())
//	s, _ := qfe.NewSession(d, r, qc, qfe.Interactive{In: os.Stdin, Out: os.Stdout}, qfe.DefaultSessionConfig())
//	out, _ := s.Run()
//	fmt.Println(out.Query.SQL())
//
// See examples/ for runnable programs and DESIGN.md for the paper-to-module
// map.
package qfe

import (
	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/editdist"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/sqlx"
)

// Data model -----------------------------------------------------------------

// Kind enumerates cell value types.
type Kind = relation.Kind

// Value kinds.
const (
	KindNull   = relation.KindNull
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
	KindBool   = relation.KindBool
)

// Value is a typed cell value.
type Value = relation.Value

// Value constructors.
var (
	Null  = relation.Null
	Int   = relation.Int
	Float = relation.Float
	Str   = relation.Str
	Bool  = relation.Bool
)

// Column, Schema, Tuple and Relation form the relational substrate.
type (
	Column   = relation.Column
	Schema   = relation.Schema
	Tuple    = relation.Tuple
	Relation = relation.Relation
)

// NewSchema builds a schema from name/kind pairs.
var NewSchema = relation.NewSchema

// NewTuple builds a tuple from Go scalars.
var NewTuple = relation.NewTuple

// NewRelation creates an empty relation.
var NewRelation = relation.New

// ReadCSV and WriteCSV (de)serialise relations.
var (
	ReadCSV  = relation.ReadCSV
	WriteCSV = relation.WriteCSV
)

// Database --------------------------------------------------------------------

// Database is a set of relations with primary/foreign-key constraints.
type Database = db.Database

// CellEdit is a single attribute modification in a base table.
type CellEdit = db.CellEdit

// Joined is a foreign-key join held as its provenance (the paper's join
// index): per joined table, the base row behind each joined tuple. Its
// rows (Row, Relation), cells and dictionary-encoded columnar view are read
// from the base tables through it, so the database must not change while
// the join is in use.
type Joined = db.Joined

// NewDatabase creates an empty database.
var NewDatabase = db.New

// Join computes the foreign-key join of the named tables; JoinAll joins
// every table.
var (
	Join    = db.Join
	JoinAll = db.JoinAll
)

// Queries ----------------------------------------------------------------------

// Query is an SPJ query π_ℓ(σ_p(J)) with a DNF predicate.
type Query = algebra.Query

// Term, Conjunct and Predicate build selection conditions programmatically.
type (
	Term      = algebra.Term
	Conjunct  = algebra.Conjunct
	Predicate = algebra.Predicate
)

// Op is a comparison operator.
type Op = algebra.Op

// Comparison operators.
const (
	OpEQ    = algebra.OpEQ
	OpNE    = algebra.OpNE
	OpLT    = algebra.OpLT
	OpLE    = algebra.OpLE
	OpGT    = algebra.OpGT
	OpGE    = algebra.OpGE
	OpIn    = algebra.OpIn
	OpNotIn = algebra.OpNotIn
)

// Term constructors.
var (
	NewTerm    = algebra.NewTerm
	NewSetTerm = algebra.NewSetTerm
)

// ParseSQL parses one SPJ SELECT statement into a Query (WHERE normalised
// to DNF).
var ParseSQL = sqlx.Parse

// Candidate generation -----------------------------------------------------------

// GenerateConfig bounds the QBO-style candidate search.
type GenerateConfig = qbo.Config

// DefaultGenerateConfig sizes the search to the paper's |QC| ≈ 19..64.
var DefaultGenerateConfig = qbo.DefaultConfig

// GenerateCandidates reverse-engineers SPJ queries with Q(D) = R.
var GenerateCandidates = qbo.Generate

// PerturbCandidates enlarges a candidate set by moving predicate constants
// within their active-domain gaps (§7.6).
var PerturbCandidates = qbo.PerturbConstants

// Feedback ------------------------------------------------------------------------

// Oracle chooses the correct result among the candidates' results on D′.
type Oracle = feedback.Oracle

// View is what one feedback round presents. The engine's rounds carry D′ as
// Edits over BaseDB and leave NewDB nil, so a pending round holds no copy
// of the database; a caller that already holds D′ may set NewDB. Either way
// View.ModifiedDB returns D′, copying BaseDB only when NewDB is nil.
type View = feedback.View

// Built-in oracles.
type (
	// WorstCase always picks the largest candidate subset (§7's automation).
	WorstCase = feedback.WorstCase
	// TargetOracle follows a known target query.
	TargetOracle = feedback.Target
	// Interactive prompts a human on an io.Reader/Writer pair.
	Interactive = feedback.Interactive
	// SimulatedUser models a participant with a response-time model (§7.7).
	SimulatedUser = feedback.SimulatedUser
)

// NewSimulatedUser returns a participant with calibrated defaults.
var NewSimulatedUser = feedback.NewSimulatedUser

// Session (Algorithm 1) -------------------------------------------------------------

// SessionConfig tunes a QFE session (β, δ, search caps).
type SessionConfig = core.Config

// Session drives the iterative winnowing loop.
type Session = core.Session

// Outcome reports the identified query and per-round statistics.
type Outcome = core.Outcome

// IterationStats is one feedback round's statistics (paper Table 1).
type IterationStats = core.IterationStats

// GenOptions configures the Database Generator module (β, δ, strategy).
type GenOptions = dbgen.Options

// Budget bounds Algorithm 3's skyline enumeration (the paper's δ).
type Budget = dbgen.Budget

// Strategy selects the candidate-set ranking (cost model vs max-partitions).
type Strategy = dbgen.Strategy

// Strategies.
const (
	StrategyCostModel     = dbgen.StrategyCostModel
	StrategyMaxPartitions = dbgen.StrategyMaxPartitions
)

// DefaultSessionConfig returns the paper's defaults (β = 1, scaled δ) with
// Parallelism 0 (all cores). Config.Parallelism is the engine's one worker
// count, used by Algorithm 3's skyline enumeration and Algorithm 4's
// scoring; the rest of a round runs serially. Set it to 1 to run every
// engine loop serially. Every count gives the same rounds, also under a
// truncating Gen.Budget.MaxPairs; only the δ time budget cuts where the
// clock says.
var DefaultSessionConfig = core.DefaultConfig

// NewSession validates inputs and prepares a session.
var NewSession = core.NewSession

// Step API --------------------------------------------------------------------

// Round is one suspended feedback round of the pausable session state
// machine: D' (as edits over D), the distinct candidate results and the
// query subsets producing them. Obtain rounds from Session.Start, resume
// with Session.Feedback(choice) — choice indexes Round.View.Results, or is
// NoneOfThese.
type Round = core.Round

// NoneOfThese is the Feedback choice for "no presented result is correct".
const NoneOfThese = core.NoneOfThese

// NewStepSession prepares a session driven through Start/Feedback without an
// oracle — the form services and custom UIs embed.
var NewStepSession = core.NewStepSession

// SessionSnapshot is the JSON-serializable state of a session (see
// internal/codec for the wire format). Session.Snapshot captures it;
// RestoreSession resumes it, mid-round, even in another process.
type SessionSnapshot = core.Snapshot

// RestoreSession rebuilds a session from a snapshot (oracle may be nil).
var RestoreSession = core.Restore

// UnmarshalSessionSnapshot parses a JSON-encoded snapshot.
var UnmarshalSessionSnapshot = core.UnmarshalSnapshot

// Utilities ---------------------------------------------------------------------------

// MinEdit is the paper's relation edit distance (modify = 1,
// insert/delete = arity).
var MinEdit = editdist.MinEdit

// EditScript returns a minimum-cost edit script between two relations.
var EditScript = editdist.Script

// FormatEdits renders database modifications as boxed differences.
var FormatEdits = feedback.FormatEdits

// FormatResultDelta renders Δ(R, Rᵢ) as a minimal edit script.
var FormatResultDelta = feedback.FormatResultDelta
