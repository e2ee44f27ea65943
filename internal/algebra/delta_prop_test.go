package algebra

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qfe/internal/relation"
	"qfe/internal/testref"
)

// This file is the property-based differential test for the incremental
// evaluator (Lemma 5.1): on randomized databases, queries and cell edits,
// DeltaOnJoined applied to the old result must agree with full
// re-evaluation — both as a materialised relation (ApplyDelta) and as the
// canonical fingerprint the winnowing partition is built from
// (DeltaFingerprint). The generator is seeded, so failures replay.

// randSchema is the fixed joined-relation schema the generator draws from:
// a numeric, a categorical and a second numeric attribute.
var propSchema = relation.NewSchema(
	"T.a", relation.KindInt,
	"T.b", relation.KindString,
	"T.c", relation.KindInt,
)

var propCats = []string{"x", "y", "z"}

func randTuple(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		relation.Int(int64(rng.Intn(7))),
		relation.Str(propCats[rng.Intn(len(propCats))]),
		relation.Int(int64(rng.Intn(5))),
	}
}

func randRelation(rng *rand.Rand) *relation.Relation {
	r := relation.New("T", propSchema)
	n := rng.Intn(13)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, randTuple(rng))
	}
	return r
}

func randTerm(rng *rand.Rand) Term {
	switch rng.Intn(4) {
	case 0:
		ops := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
		return NewTerm("T.a", ops[rng.Intn(len(ops))], relation.Int(int64(rng.Intn(7))))
	case 1:
		ops := []Op{OpEQ, OpNE}
		return NewTerm("T.b", ops[rng.Intn(len(ops))], relation.Str(propCats[rng.Intn(len(propCats))]))
	case 2:
		set := []relation.Value{relation.Str(propCats[rng.Intn(len(propCats))])}
		if rng.Intn(2) == 0 {
			set = append(set, relation.Str(propCats[rng.Intn(len(propCats))]))
		}
		ops := []Op{OpIn, OpNotIn}
		return NewSetTerm("T.b", ops[rng.Intn(2)], set)
	default:
		ops := []Op{OpLT, OpGE}
		return NewTerm("T.c", ops[rng.Intn(2)], relation.Int(int64(rng.Intn(5))))
	}
}

func randQuery(rng *rand.Rand, name string) *Query {
	q := &Query{Name: name, Tables: []string{"T"}}
	// Random projection: non-empty subset of columns, order shuffled.
	cols := []string{"T.a", "T.b", "T.c"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	q.Projection = cols[:1+rng.Intn(len(cols))]
	// Random DNF: 0-2 conjuncts of 1-2 terms (0 conjuncts = TRUE).
	for c := rng.Intn(3); c > 0; c-- {
		conj := Conjunct{randTerm(rng)}
		if rng.Intn(2) == 0 {
			conj = append(conj, randTerm(rng))
		}
		q.Pred = append(q.Pred, conj)
	}
	q.Distinct = rng.Intn(4) == 0
	return q
}

// randEdits picks a random set of rows and replacement tuples.
func randEdits(rng *rand.Rand, rel *relation.Relation) map[int]relation.Tuple {
	modified := map[int]relation.Tuple{}
	if rel.Len() == 0 {
		return modified
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		row := rng.Intn(rel.Len())
		nt := rel.Tuples[row].Clone()
		// Change 1-2 attributes; sometimes to the same value (the TT-equal
		// projection case of Lemma 5.1 needs edits that miss the query).
		for k := 1 + rng.Intn(2); k > 0; k-- {
			col := rng.Intn(3)
			nt[col] = randTuple(rng)[col]
		}
		modified[row] = nt
	}
	return modified
}

// keyCounts is the multiset of r's tuple keys.
func keyCounts(r *relation.Relation) map[string]int {
	m := make(map[string]int, len(r.Tuples))
	for _, t := range r.Tuples {
		m[t.Key()]++
	}
	return m
}

// DeltaOnJoined is the scalar Lemma 5.1 reference, testref.DeltaOnJoined,
// for q: the reference BatchDeltaOnJoined is checked against.
func (q *Query) DeltaOnJoined(joined *relation.Relation, modified map[int]relation.Tuple) (ResultDelta, error) {
	removed, added, err := testref.DeltaOnJoined(joined, modified, q.Pred.Compile(joined.Schema), q.Projection)
	if err != nil {
		return ResultDelta{}, fmt.Errorf("algebra: delta %s: %w", q.Name, err)
	}
	return ResultDelta{Removed: removed, Added: added}, nil
}

// Empty reports whether the delta leaves the result unchanged tuple-for-
// tuple.
func (d ResultDelta) Empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// Matches evaluates the conjunct against a tuple under the given schema,
// looking each column up per call: the reference for Predicate.Compile.
func (c Conjunct) Matches(schema relation.Schema, tup relation.Tuple) bool {
	for _, t := range c {
		i := schema.IndexOf(t.Attr)
		if i < 0 || !t.Matches(tup[i]) {
			return false
		}
	}
	return true
}

// Matches evaluates the predicate against a tuple: the reference for
// Predicate.Compile.
func (p Predicate) Matches(schema relation.Schema, tup relation.Tuple) bool {
	if len(p) == 0 {
		return true
	}
	for _, c := range p {
		if c.Matches(schema, tup) {
			return true
		}
	}
	return false
}

// slowDeltaFingerprint is the string-keyed canonical encoding of the
// post-delta result (sorted tuple keys, ×count under bag semantics). It is
// the reference implementation for DeltaFingerprint's differential tests:
// two (base, delta) pairs get equal slow encodings iff they describe the
// same result bag, which is exactly when DeltaFingerprint must agree.
func (q *Query) slowDeltaFingerprint(base *relation.Relation, delta ResultDelta) string {
	counts := keyCounts(base)
	for _, t := range delta.Removed {
		counts[t.Key()]--
	}
	for _, t := range delta.Added {
		counts[t.Key()]++
	}
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		if c <= 0 {
			continue
		}
		if q.Distinct {
			keys = append(keys, k)
		} else {
			keys = append(keys, fmt.Sprintf("%s×%d", k, c))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// deltaStyleFP re-encodes a fully re-evaluated result in DeltaFingerprint's
// canonical form: sorted tuple keys, with ×multiplicity under bag semantics.
func deltaStyleFP(q *Query, r *relation.Relation) string {
	counts := keyCounts(r)
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		if c <= 0 {
			continue
		}
		if q.Distinct {
			keys = append(keys, k)
		} else {
			keys = append(keys, fmt.Sprintf("%s×%d", k, c))
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// applyModified materialises D' from the modification map.
func applyModified(rel *relation.Relation, modified map[int]relation.Tuple) *relation.Relation {
	out := relation.New(rel.Name, rel.Schema).Append(rel.Tuples...)
	for row, nt := range modified {
		out.Tuples[row] = nt
	}
	return out
}

// lemmaCase classifies one modified row for a query, mirroring Lemma 5.1:
// "keep" (in before and after, projection unchanged), "mod" (in both,
// projection changed), "del" (falls out), "ins" (falls in), "none" (out
// both times).
func lemmaCase(q *Query, rel *relation.Relation, row int, nt relation.Tuple) string {
	oldIn := q.Pred.Matches(rel.Schema, rel.Tuples[row])
	newIn := q.Pred.Matches(rel.Schema, nt)
	switch {
	case oldIn && newIn:
		idx := make([]int, len(q.Projection))
		for i, n := range q.Projection {
			idx[i] = rel.Schema.MustIndexOf(n)
		}
		if rel.Tuples[row].Project(idx).Equal(nt.Project(idx)) {
			return "keep"
		}
		return "mod"
	case oldIn:
		return "del"
	case newIn:
		return "ins"
	default:
		return "none"
	}
}

func TestDeltaOnJoinedMatchesFullReevaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(20150813))
	caseSeen := map[string]int{}
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		rel := randRelation(rng)
		q := randQuery(rng, fmt.Sprintf("P%d", trial))
		modified := randEdits(rng, rel)

		delta, err := q.DeltaOnJoined(rel, modified)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The delta base is the bag-semantics evaluation, as dbgen stores it
		// (set membership after a modification depends on how many joined
		// rows still produce a tuple; see dbgen's evaluateBase).
		bagQ := q.Clone()
		bagQ.Distinct = false
		base, err := bagQ.EvaluateOnJoined(rel)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after := applyModified(rel, modified)
		full, err := q.EvaluateOnJoined(after)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Fingerprint path: exactly what partitionConcrete compares. The
		// string-keyed reference encoding must match a re-encoding of the
		// full re-evaluation, and the hashed 128-bit fingerprint must agree
		// with the fingerprint of that same full result (same bag ⇒ same
		// ResultFP; the slow reference proves "same bag").
		if got, want := q.slowDeltaFingerprint(base, delta), deltaStyleFP(q, full); got != want {
			t.Fatalf("trial %d: slowDeltaFingerprint diverges from full re-evaluation\nquery: %s\nD: %v\nedits: %v\ngot:  %q\nwant: %q",
				trial, q.SQL(), rel.Tuples, modified, got, want)
		}
		if got, want := q.DeltaFingerprint(base, delta), q.DeltaFingerprint(full, ResultDelta{}); got != want {
			t.Fatalf("trial %d: hashed DeltaFingerprint diverges from full re-evaluation\nquery: %s\nD: %v\nedits: %v\ngot:  %v\nwant: %v",
				trial, q.SQL(), rel.Tuples, modified, got, want)
		}

		// Materialisation path: ApplyDelta on the bag base, collapsed for
		// DISTINCT queries — the exact sequence in dbgen's partitionConcrete.
		inc := ApplyDelta(base, delta)
		if q.Distinct {
			inc = inc.Distinct()
		}
		if !inc.BagEqual(full) {
			t.Fatalf("trial %d: ApplyDelta diverges from full re-evaluation\nquery: %s\nD: %v\nedits: %v\ninc:  %v\nfull: %v",
				trial, q.SQL(), rel.Tuples, modified, inc.Tuples, full.Tuples)
		}

		// Classify the exercised Lemma 5.1 cases.
		for row, nt := range modified {
			caseSeen[lemmaCase(q, rel, row, nt)]++
		}
	}
	// All four effect cases (plus the no-op) must have been exercised.
	for _, c := range []string{"keep", "mod", "del", "ins", "none"} {
		if caseSeen[c] == 0 {
			t.Errorf("Lemma 5.1 case %q never exercised in %d trials (%v)", c, trials, caseSeen)
		}
	}
	t.Logf("case coverage over %d trials: %v", trials, caseSeen)
}

// TestDeltaOnJoinedErrors pins the error paths: unknown projection column
// and out-of-range rows.
func TestDeltaOnJoinedErrors(t *testing.T) {
	rel := relation.New("T", propSchema)
	rel.Tuples = append(rel.Tuples, relation.Tuple{
		relation.Int(1), relation.Str("x"), relation.Int(2)})
	q := &Query{Name: "Q", Tables: []string{"T"}, Projection: []string{"T.missing"}}
	if _, err := q.DeltaOnJoined(rel, map[int]relation.Tuple{0: rel.Tuples[0]}); err == nil {
		t.Error("missing projection column should error")
	}
	q2 := &Query{Name: "Q2", Tables: []string{"T"}, Projection: []string{"T.a"}}
	if _, err := q2.DeltaOnJoined(rel, map[int]relation.Tuple{5: rel.Tuples[0]}); err == nil {
		t.Error("out-of-range row should error")
	}
}
