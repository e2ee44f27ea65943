package algebra

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"qfe/internal/db"
	"qfe/internal/relation"
)

// Query is an SPJ query π_ℓ(σ_p(J)): the foreign-key join J of Tables,
// filtered by the DNF predicate Pred, projected onto Projection. Distinct
// selects set semantics (SELECT DISTINCT); the default is bag semantics, the
// paper's §5 assumption.
//
// A query is immutable once Key or JoinSchemaKey has been called: those
// canonical encodings are computed once and memoised on the query
// (winnowing rounds call them per candidate per round, and the
// sort-and-join work added up). Callers that need a variant of an existing
// query must Clone it and mutate the clone before its first Key use —
// Clone deliberately does not copy the memoised encodings.
type Query struct {
	Name       string   // optional label ("Q1", ...); not part of Key
	Tables     []string // base tables joined via foreign keys (the join schema)
	Projection []string // qualified column names of the joined relation
	Pred       Predicate
	Distinct   bool

	// memo holds the lazily computed canonical encodings. An atomic pointer
	// (not sync.Once) keeps the zero Query copyable and lets concurrent
	// first callers race benignly: both compute the same value, one wins.
	memo atomic.Pointer[queryMemo]
}

type queryMemo struct {
	joinKey string
	key     string
}

func (q *Query) memoized() *queryMemo {
	if m := q.memo.Load(); m != nil {
		return m
	}
	ts := append([]string(nil), q.Tables...)
	sort.Strings(ts)
	jk := strings.Join(ts, "⋈")
	key := jk + "\x03" + strings.Join(q.Projection, ",") +
		"\x03" + q.Pred.Key() + "\x03" + fmt.Sprint(q.Distinct)
	m := &queryMemo{joinKey: jk, key: key}
	q.memo.Store(m)
	return m
}

// JoinSchemaKey canonically identifies the query's join schema; queries with
// equal keys can be winnowed together (§6.2). Computed once, memoised.
func (q *Query) JoinSchemaKey() string { return q.memoized().joinKey }

// Key canonically encodes the whole query (join schema, projection,
// normalised predicate, semantics). Equal keys mean structurally identical
// queries, so Key is what exact deduplication compares. Computed once,
// memoised (queries are immutable after construction; see the type doc).
func (q *Query) Key() string { return q.memoized().key }

// Clone deep-copies the query. The memoised Key material is NOT copied: a
// clone may be mutated before its first Key use (e.g. dbgen's bag-semantics
// re-evaluation clones and clears Distinct), so it must re-derive its own
// encodings.
func (q *Query) Clone() *Query {
	c := &Query{
		Name:       q.Name,
		Tables:     append([]string(nil), q.Tables...),
		Projection: append([]string(nil), q.Projection...),
		Distinct:   q.Distinct,
	}
	c.Pred = make(Predicate, len(q.Pred))
	for i, conj := range q.Pred {
		cc := make(Conjunct, len(conj))
		for j, t := range conj {
			tt := t
			tt.Set = append([]relation.Value(nil), t.Set...)
			cc[j] = tt
		}
		c.Pred[i] = cc
	}
	return c
}

// SQL renders the query as a SQL statement. Joins are emitted as NATURAL
// JOIN-style explicit equality is omitted because the join conditions are
// implied by the declared foreign keys; the CLI prints FK edges alongside.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Projection) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Projection, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, " JOIN "))
	if len(q.Pred) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(q.Pred.String())
	}
	return b.String()
}

// String implements fmt.Stringer; it prefixes the optional name.
func (q *Query) String() string {
	if q.Name != "" {
		return q.Name + ": " + q.SQL()
	}
	return q.SQL()
}

// Evaluate runs the query against a database: joins q.Tables by foreign
// keys, applies the predicate and the projection. The result relation's name
// is the query name.
func (q *Query) Evaluate(d *db.Database) (*relation.Relation, error) {
	j, err := db.Join(d, q.Tables)
	if err != nil {
		return nil, fmt.Errorf("algebra: evaluate %s: %w", q.Name, err)
	}
	return q.EvaluateOnColumnar(j.Columnar())
}

// EvaluateOnColumnar runs selection+projection on a join's columnar view:
// only the predicate's columns are encoded, and only the selected rows'
// projected cells are read. It is one query of the batch engine
// (BatchEvaluateOnJoined), byte-identical to EvaluateOnJoined on the join's
// rows, but outside the engine's scan counters, which count the winnowing
// rounds' own scans.
func (q *Query) EvaluateOnColumnar(col *relation.Columnar) (*relation.Relation, error) {
	out, err := evaluateColumnar([]*Query{q}, col)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// EvaluateOnJoined runs selection+projection row at a time against
// materialised joined rows: the reference the batch engine is pinned to.
func (q *Query) EvaluateOnJoined(joined *relation.Relation) (*relation.Relation, error) {
	sel := joined.Select(q.Pred.Compile(joined.Schema))
	out, err := sel.Project(q.Projection)
	if err != nil {
		return nil, fmt.Errorf("algebra: evaluate %s: %w", q.Name, err)
	}
	if q.Distinct {
		out = out.Distinct()
	}
	out.Name = q.Name
	return out, nil
}

// ResultDelta is the effect of a set of joined-tuple modifications on one
// query's result: projected tuples removed from and added to Q(D). It
// captures Lemma 5.1's four cases per modified tuple.
type ResultDelta struct {
	Removed []relation.Tuple
	Added   []relation.Tuple
}

// ApplyDelta applies a delta to a base result (bag semantics) and returns
// the resulting relation. Removal bookkeeping runs through the hash kernel
// (collision-verified), so no per-tuple key strings are built.
func ApplyDelta(base *relation.Relation, delta ResultDelta) *relation.Relation {
	out := relation.New(base.Name, base.Schema)
	remove := relation.NewBag(len(delta.Removed))
	for _, t := range delta.Removed {
		remove.Inc(t, 1)
	}
	for _, t := range base.Tuples {
		if remove.TakeOne(t) {
			continue
		}
		out.Tuples = append(out.Tuples, t)
	}
	for _, t := range delta.Added {
		out.Tuples = append(out.Tuples, t)
	}
	return out
}

// ResultFP is a 128-bit fingerprint of one query's predicted result on the
// modified database: a commutative combination of per-tuple hashes and
// multiplicities (relation.Bag.Fingerprint128). Two queries with equal
// fingerprints produce the same result bag on D' up to 128-bit collision;
// unlike the kernel's verified operations this grouping is probabilistic,
// which is acceptable because a collision merely merges two candidate
// groups and 2⁻¹²⁸-scale probabilities are negligible at QFE's candidate
// counts. ResultFP is comparable and replaces the canonical sorted-string
// encoding the partitioner used to build per query per round.
type ResultFP struct{ Lo, Hi uint64 }

// DeltaFingerprint returns the fingerprint of the post-delta result, given
// the base result, under the query's semantics. Two queries whose
// fingerprints agree produce the same result on D' — this is how QFE
// partitions QC without materialising each result (§2, step 4). The counts
// are exact (hash-keyed with equality verification); only the final 128-bit
// encoding is probabilistic. The differential tests check it against a
// string-keyed reference encoding.
func (q *Query) DeltaFingerprint(base *relation.Relation, delta ResultDelta) ResultFP {
	counts := relation.NewBag(base.Len())
	for _, t := range base.Tuples {
		counts.Inc(t, 1)
	}
	for _, t := range delta.Removed {
		counts.Inc(t, -1)
	}
	for _, t := range delta.Added {
		counts.Inc(t, 1)
	}
	lo, hi := counts.Fingerprint128(q.Distinct)
	return ResultFP{Lo: lo, Hi: hi}
}
