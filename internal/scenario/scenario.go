// Package scenario generates complete QFE problem instances end-to-end: a
// random relational schema connected by a foreign-key tree, a populated
// database with controllable skew and active-domain sizes, a target query
// sampled from the supported algebra grammar (SPJ + DISTINCT, DNF
// selection), and the implied result R = Q(D), guaranteed non-trivial
// (non-empty and not the whole projected join).
//
// Generation is seeded and fully deterministic: the same (seed, options)
// pair produces byte-identical scenarios, and each scenario can regenerate
// fresh databases over its own schema (FreshDB) — the data source for the
// simulation harness's metamorphic differential oracle (internal/simulate).
//
// The package also defines the corpus file format (corpus.go) so generated
// scenarios can be saved, replayed and shipped as fixtures, and registers
// the curated internal/datasets scenarios as corpus entries (curated.go).
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// MinMax is an inclusive integer range knob.
type MinMax struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

func (m MinMax) pick(rng *rand.Rand) int {
	if m.Max <= m.Min {
		return m.Min
	}
	return m.Min + rng.Intn(m.Max-m.Min+1)
}

// QueryOptions bounds the target-query grammar.
type QueryOptions struct {
	// MaxJoinTables caps the FK-connected table subset joined by the target
	// (0 = all generated tables allowed).
	MaxJoinTables int `json:"maxJoinTables"`
	// Conjuncts is the DNF width (number of OR'd conjuncts).
	Conjuncts MinMax `json:"conjuncts"`
	// TermsPerConjunct is the number of AND'd comparison terms per conjunct.
	TermsPerConjunct MinMax `json:"termsPerConjunct"`
	// ProjectionCols is the projection-list length (clamped to the joined
	// arity).
	ProjectionCols MinMax `json:"projectionCols"`
	// DistinctProb is the probability the target uses SELECT DISTINCT.
	DistinctProb float64 `json:"distinctProb"`
	// MaxResultRows rejects sampled queries whose result exceeds this many
	// tuples (0 = unlimited). Small results keep downstream winnowing and
	// edit-distance work proportionate, mirroring the paper's workloads
	// (result sizes 1–14).
	MaxResultRows int `json:"maxResultRows"`
}

// GenOptions configures the generator. The zero value is not useful; start
// from DefaultGenOptions.
type GenOptions struct {
	// Tables is the number of base tables. Tables beyond the first each get
	// one foreign key to a random earlier table, so the FK graph is a
	// connected tree and every table subset used by a query joins.
	Tables MinMax `json:"tables"`
	// PayloadCols is the number of non-key columns per table.
	PayloadCols MinMax `json:"payloadCols"`
	// Rows is the table cardinality range.
	Rows MinMax `json:"rows"`
	// DomainSize is the active-domain size per payload column.
	DomainSize MinMax `json:"domainSize"`
	// Skew shapes both value and FK-reference distributions: draws use
	// idx = ⌊n·u^Skew⌋ for u uniform in [0,1), so Skew = 1 is uniform and
	// larger values concentrate mass on low indexes (head-heavy).
	Skew float64 `json:"skew"`
	// FloatShare and StringShare set the expected fraction of float and
	// string payload columns; the remainder are integers.
	FloatShare  float64 `json:"floatShare"`
	StringShare float64 `json:"stringShare"`
	// Query bounds the target-query grammar.
	Query QueryOptions `json:"query"`
	// MaxAttempts bounds how many databases Generate tries before giving up
	// (each attempt re-derives everything from the seed, so the overall
	// generation stays deterministic). 0 selects 32.
	MaxAttempts int `json:"maxAttempts,omitempty"`
}

// DefaultGenOptions returns small-but-structured scenarios: 2–3 tables,
// tens of rows, mixed column kinds, mildly skewed values and paper-sized
// results. One scenario at these defaults drives a full QFE session in
// milliseconds, so corpora of hundreds are cheap.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		Tables:      MinMax{2, 3},
		PayloadCols: MinMax{2, 4},
		Rows:        MinMax{12, 36},
		DomainSize:  MinMax{2, 6},
		Skew:        1.2,
		FloatShare:  0.25,
		StringShare: 0.4,
		Query: QueryOptions{
			MaxJoinTables:    3,
			Conjuncts:        MinMax{1, 2},
			TermsPerConjunct: MinMax{1, 2},
			ProjectionCols:   MinMax{1, 3},
			DistinctProb:     0.25,
			MaxResultRows:    10,
		},
	}
}

// Scenario is one complete QFE problem instance. Generated scenarios carry
// their effective seed and options so fresh databases over the same schema
// can be re-derived (FreshDB); curated scenarios (internal/datasets) carry
// only the instance itself.
type Scenario struct {
	Name   string
	Kind   string // KindGenerated or KindCurated
	Seed   int64  // effective seed (generated scenarios)
	Opts   *GenOptions
	DB     *db.Database
	Target *algebra.Query
	R      *relation.Relation
}

// Scenario kinds.
const (
	KindGenerated = "generated"
	KindCurated   = "curated"
)

// CanFresh reports whether FreshDB is available (generated scenarios only).
func (s *Scenario) CanFresh() bool { return s.Kind == KindGenerated && s.Opts != nil }

// FreshDB regenerates a database over the scenario's schema — same tables,
// columns, constraints and active domains, new tuples — deterministically
// from the scenario seed and k. The target query is still well-formed over
// it (its attributes and join schema are schema-level), which makes
// (target, converged) result comparisons on fresh databases a metamorphic
// differential oracle.
func (s *Scenario) FreshDB(k int) (*db.Database, error) {
	if !s.CanFresh() {
		return nil, fmt.Errorf("scenario: %s is not generated; no fresh databases", s.Name)
	}
	spec := sampleSpec(rand.New(rand.NewSource(deriveSeed(s.Seed, saltSpec))), *s.Opts)
	return populate(spec, rand.New(rand.NewSource(deriveSeed(s.Seed, saltFresh+uint64(k)))), s.Opts.Skew), nil
}

// deriveSeed splits one seed into independent sub-streams (splitmix64).
func deriveSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Sub-stream salts. saltFresh leaves headroom for any number of fresh DBs.
const (
	saltSpec  uint64 = 1
	saltData  uint64 = 2
	saltQuery uint64 = 3
	saltFresh uint64 = 1 << 20
)

// Generate produces one scenario deterministically from (seed, opts). It
// retries with re-derived sub-seeds until the sampled query's result is
// non-trivial; a constructive fallback makes failure to terminate within
// MaxAttempts essentially impossible for sane options.
func Generate(seed int64, opts GenOptions) (*Scenario, error) {
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 32
	}
	for a := 0; a < attempts; a++ {
		eff := seed
		if a > 0 {
			eff = deriveSeed(seed, 0xA77E0000+uint64(a))
		}
		s, ok := build(eff, opts)
		if ok {
			s.Name = fmt.Sprintf("gen-%016x", uint64(eff))
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenario: no non-trivial query found in %d attempts (seed %d)", attempts, seed)
}

// GenerateCorpus produces n scenarios with per-scenario seeds derived from
// the corpus seed, named gen-00001.. in order.
func GenerateCorpus(seed int64, n int, opts GenOptions) ([]*Scenario, error) {
	out := make([]*Scenario, 0, n)
	for i := 0; i < n; i++ {
		s, err := Generate(deriveSeed(seed, 0xC0_0000+uint64(i)), opts)
		if err != nil {
			return nil, fmt.Errorf("scenario: corpus entry %d: %w", i, err)
		}
		s.Name = fmt.Sprintf("gen-%05d", i+1)
		out = append(out, s)
	}
	return out, nil
}

// build runs one full attempt: schema spec, population, query sampling.
func build(eff int64, opts GenOptions) (*Scenario, bool) {
	spec := sampleSpec(rand.New(rand.NewSource(deriveSeed(eff, saltSpec))), opts)
	d := populate(spec, rand.New(rand.NewSource(deriveSeed(eff, saltData))), opts.Skew)
	q, r, ok := sampleQuery(spec, d, rand.New(rand.NewSource(deriveSeed(eff, saltQuery))), opts)
	if !ok {
		return nil, false
	}
	o := opts
	return &Scenario{Kind: KindGenerated, Seed: eff, Opts: &o, DB: d, Target: q, R: r}, true
}

// colSpec is one payload column: a name, a kind and a fixed active domain
// values are drawn from (shared between the original and fresh databases,
// so query constants stay meaningful across regenerations).
type colSpec struct {
	name   string
	kind   relation.Kind
	domain []relation.Value
}

// tableSpec is one table: payload columns, a sequential int primary key
// "id", and (except for the root) one FK column "<parent>_id".
type tableSpec struct {
	name     string
	fkParent int // index of the parent table, -1 for the root
	rows     int
	cols     []colSpec
}

type dbSpec struct {
	tables []tableSpec
}

// sampleSpec draws the schema: an FK tree of tables with typed payload
// columns and per-column active domains.
func sampleSpec(rng *rand.Rand, opts GenOptions) *dbSpec {
	nt := opts.Tables.pick(rng)
	if nt < 1 {
		nt = 1
	}
	spec := &dbSpec{}
	for i := 0; i < nt; i++ {
		t := tableSpec{
			name:     fmt.Sprintf("T%d", i+1),
			fkParent: -1,
			rows:     opts.Rows.pick(rng),
		}
		if t.rows < 2 {
			t.rows = 2
		}
		if i > 0 {
			t.fkParent = rng.Intn(i)
		}
		nc := opts.PayloadCols.pick(rng)
		if nc < 1 {
			nc = 1
		}
		for c := 0; c < nc; c++ {
			cs := colSpec{name: fmt.Sprintf("c%d", c+1)}
			r := rng.Float64()
			switch {
			case r < opts.FloatShare:
				cs.kind = relation.KindFloat
			case r < opts.FloatShare+opts.StringShare:
				cs.kind = relation.KindString
			default:
				cs.kind = relation.KindInt
			}
			cs.domain = sampleDomain(rng, cs.kind, opts.DomainSize.pick(rng))
			t.cols = append(t.cols, cs)
		}
		spec.tables = append(spec.tables, t)
	}
	return spec
}

// sampleDomain draws size distinct values of the kind from a space ~8×
// larger, so domains overlap across columns only occasionally.
func sampleDomain(rng *rand.Rand, kind relation.Kind, size int) []relation.Value {
	if size < 2 {
		size = 2
	}
	span := size * 8
	seen := make(map[int]bool, size)
	var picks []int
	for len(picks) < size {
		v := rng.Intn(span)
		if !seen[v] {
			seen[v] = true
			picks = append(picks, v)
		}
	}
	sort.Ints(picks)
	out := make([]relation.Value, size)
	for i, p := range picks {
		switch kind {
		case relation.KindFloat:
			out[i] = relation.Float(float64(p) + 0.5)
		case relation.KindString:
			out[i] = relation.Str(fmt.Sprintf("v%02d", p))
		default:
			out[i] = relation.Int(int64(p))
		}
	}
	return out
}

// skewIndex draws an index in [0, n) with head-heavy bias for skew > 1
// (skew = 1 is uniform).
func skewIndex(rng *rand.Rand, n int, skew float64) int {
	if n <= 1 {
		return 0
	}
	if skew <= 1 {
		return rng.Intn(n)
	}
	i := int(math.Pow(rng.Float64(), skew) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// populate builds the database for a spec: parents before children (the
// spec's order guarantees parents have lower indexes), FK values drawn from
// the parent's ids and payload values from the column domains, both with
// the configured skew. Every database it returns satisfies its declared
// primary- and foreign-key constraints by construction.
func populate(spec *dbSpec, rng *rand.Rand, skew float64) *db.Database {
	d := db.New()
	for _, ts := range spec.tables {
		pairs := []any{"id", relation.KindInt}
		if ts.fkParent >= 0 {
			pairs = append(pairs, spec.tables[ts.fkParent].name+"_id", relation.KindInt)
		}
		for _, c := range ts.cols {
			pairs = append(pairs, c.name, c.kind)
		}
		rel := relation.New(ts.name, relation.NewSchema(pairs...))
		parentRows := 0
		if ts.fkParent >= 0 {
			parentRows = spec.tables[ts.fkParent].rows
		}
		for row := 0; row < ts.rows; row++ {
			tup := make(relation.Tuple, 0, rel.Arity())
			tup = append(tup, relation.Int(int64(row)))
			if ts.fkParent >= 0 {
				tup = append(tup, relation.Int(int64(skewIndex(rng, parentRows, skew))))
			}
			for _, c := range ts.cols {
				tup = append(tup, c.domain[skewIndex(rng, len(c.domain), skew)])
			}
			rel.Append(tup)
		}
		d.MustAddTable(rel)
		d.AddPrimaryKey(ts.name, "id")
		if ts.fkParent >= 0 {
			parent := spec.tables[ts.fkParent].name
			d.AddForeignKey(ts.name, []string{parent + "_id"}, parent, []string{"id"})
		}
	}
	return d
}

// sampleQuery draws a target query over the populated database and returns
// it with its result, rejecting trivial ones: the result must be non-empty,
// the selection must filter at least one joined row, and the result must
// differ from the same projection with a TRUE predicate (non-total, under
// the query's own bag/set semantics). After a bounded number of grammar
// samples it falls back to a constructive predicate derived from the data,
// which succeeds whenever any payload column is non-constant on the join.
func sampleQuery(spec *dbSpec, d *db.Database, rng *rand.Rand, opts GenOptions) (*algebra.Query, *relation.Relation, bool) {
	tables := sampleJoinTables(spec, rng, opts.Query.MaxJoinTables)
	j, err := db.Join(d, tables)
	if err != nil || j.Len() < 2 {
		return nil, nil, false
	}
	joined := j.Relation()
	proj := sampleProjection(joined.Schema, rng, opts.Query.ProjectionCols)
	distinct := rng.Float64() < opts.Query.DistinctProb

	// Predicates range over payload columns: small active domains give them
	// meaningful selectivity (id columns are near-unique keys).
	attrs := payloadAttrs(spec, joined.Schema, tables)
	if len(attrs) == 0 {
		return nil, nil, false
	}

	const grammarTries = 48
	for try := 0; try < grammarTries; try++ {
		pred := samplePredicate(spec, rng, attrs, opts.Query)
		if q, r, ok := admit(tables, proj, pred, distinct, joined, opts.Query.MaxResultRows); ok {
			return q, r, true
		}
	}
	// Constructive fallback: equality on the (attr, value) pair with the
	// smallest positive row count — a guaranteed proper, non-empty subset of
	// the join whenever some payload column is non-constant. It targets bag
	// semantics, and the result-size cap still applies: a cap too tight for
	// even the rarest value fails the attempt, and the outer retry
	// regenerates the database.
	if pred, ok := constructivePredicate(joined, attrs); ok {
		if q, r, ok := admit(tables, proj, pred, false, joined, opts.Query.MaxResultRows); ok {
			return q, r, true
		}
	}
	return nil, nil, false
}

// admit materialises and screens one sampled query.
func admit(tables, proj []string, pred algebra.Predicate, distinct bool,
	joined *relation.Relation, maxRows int) (*algebra.Query, *relation.Relation, bool) {
	q := &algebra.Query{Name: "target", Tables: tables, Projection: proj, Pred: pred, Distinct: distinct}
	match := pred.Compile(joined.Schema)
	selected := 0
	for _, t := range joined.Tuples {
		if match(t) {
			selected++
		}
	}
	if selected == 0 || selected == joined.Len() {
		return nil, nil, false
	}
	r, err := q.EvaluateOnJoined(joined)
	if err != nil || r.Len() == 0 {
		return nil, nil, false
	}
	if maxRows > 0 && r.Len() > maxRows {
		return nil, nil, false
	}
	// Non-total under the query's own semantics: projection (and DISTINCT)
	// may collapse a proper selection back to the full result.
	trivial := &algebra.Query{Tables: tables, Projection: proj, Distinct: distinct}
	full, err := trivial.EvaluateOnJoined(joined)
	if err != nil || r.BagEqual(full) {
		return nil, nil, false
	}
	r.Name = "R"
	return q, r, true
}

// sampleJoinTables picks a random FK-connected subtree of the schema.
func sampleJoinTables(spec *dbSpec, rng *rand.Rand, maxTables int) []string {
	n := len(spec.tables)
	if maxTables <= 0 || maxTables > n {
		maxTables = n
	}
	// Adjacency from the FK tree.
	adj := make([][]int, n)
	for i, t := range spec.tables {
		if t.fkParent >= 0 {
			adj[i] = append(adj[i], t.fkParent)
			adj[t.fkParent] = append(adj[t.fkParent], i)
		}
	}
	in := map[int]bool{}
	start := rng.Intn(n)
	in[start] = true
	frontier := append([]int(nil), adj[start]...)
	for len(in) < maxTables && len(frontier) > 0 {
		// Grow with decaying probability, so single-table and full-join
		// queries both occur.
		if len(in) > 1 && rng.Float64() < 0.4 {
			break
		}
		i := rng.Intn(len(frontier))
		next := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		if in[next] {
			continue
		}
		in[next] = true
		for _, a := range adj[next] {
			if !in[a] {
				frontier = append(frontier, a)
			}
		}
	}
	var names []string
	for i := range spec.tables {
		if in[i] {
			names = append(names, spec.tables[i].name)
		}
	}
	sort.Strings(names)
	return names
}

// sampleProjection picks distinct joined columns in schema order.
func sampleProjection(schema relation.Schema, rng *rand.Rand, want MinMax) []string {
	k := want.pick(rng)
	if k < 1 {
		k = 1
	}
	if k > len(schema) {
		k = len(schema)
	}
	idx := rng.Perm(len(schema))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = schema[j].Name
	}
	return out
}

// payloadAttrs lists the qualified payload columns of the joined schema.
func payloadAttrs(spec *dbSpec, schema relation.Schema, tables []string) []string {
	payload := map[string]*colSpec{}
	for ti := range spec.tables {
		t := &spec.tables[ti]
		for ci := range t.cols {
			payload[t.name+"."+t.cols[ci].name] = &t.cols[ci]
		}
	}
	var out []string
	for _, c := range schema {
		if payload[c.Name] != nil {
			out = append(out, c.Name)
		}
	}
	return out
}

// domainOf finds the spec domain for a qualified attribute.
func domainOf(spec *dbSpec, attr string) []relation.Value {
	for ti := range spec.tables {
		t := &spec.tables[ti]
		for ci := range t.cols {
			if t.name+"."+t.cols[ci].name == attr {
				return t.cols[ci].domain
			}
		}
	}
	return nil
}

// samplePredicate draws a DNF predicate from the grammar: OR of conjuncts,
// each an AND of comparison terms on payload attributes with constants from
// the attribute's active domain. String attributes use {=, <>, IN};
// numeric attributes use the six comparisons.
func samplePredicate(spec *dbSpec, rng *rand.Rand, attrs []string, q QueryOptions) algebra.Predicate {
	nc := q.Conjuncts.pick(rng)
	if nc < 1 {
		nc = 1
	}
	var pred algebra.Predicate
	for c := 0; c < nc; c++ {
		nt := q.TermsPerConjunct.pick(rng)
		if nt < 1 {
			nt = 1
		}
		var conj algebra.Conjunct
		used := map[string]bool{}
		for t := 0; t < nt; t++ {
			attr := attrs[rng.Intn(len(attrs))]
			if used[attr] {
				continue // at most one term per attribute per conjunct
			}
			used[attr] = true
			dom := domainOf(spec, attr)
			v := dom[rng.Intn(len(dom))]
			if v.Kind == relation.KindString {
				switch rng.Intn(3) {
				case 0:
					conj = append(conj, algebra.NewTerm(attr, algebra.OpEQ, v))
				case 1:
					conj = append(conj, algebra.NewTerm(attr, algebra.OpNE, v))
				default:
					k := 1 + rng.Intn(min(3, len(dom)))
					set := make([]relation.Value, 0, k)
					for _, i := range rng.Perm(len(dom))[:k] {
						set = append(set, dom[i])
					}
					conj = append(conj, algebra.NewSetTerm(attr, algebra.OpIn, set))
				}
			} else {
				ops := []algebra.Op{algebra.OpEQ, algebra.OpNE, algebra.OpLT,
					algebra.OpLE, algebra.OpGT, algebra.OpGE}
				conj = append(conj, algebra.NewTerm(attr, ops[rng.Intn(len(ops))], v))
			}
		}
		if len(conj) > 0 {
			pred = append(pred, conj)
		}
	}
	return pred
}

// constructivePredicate scans payload columns for the (attr, value) pair
// with the smallest positive count below the total, yielding a guaranteed
// non-empty proper selection. It fails only when every payload column is
// constant over the join.
func constructivePredicate(joined *relation.Relation, attrs []string) (algebra.Predicate, bool) {
	total := joined.Len()
	bestCount := total + 1
	var bestTerm algebra.Term
	for _, attr := range attrs {
		ci := joined.Schema.IndexOf(attr)
		if ci < 0 {
			continue
		}
		counts := map[string]int{}
		vals := map[string]relation.Value{}
		for _, t := range joined.Tuples {
			k := t[ci].Key()
			counts[k]++
			vals[k] = t[ci]
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if c := counts[k]; c > 0 && c < total && c < bestCount && !vals[k].IsNull() {
				bestCount = c
				bestTerm = algebra.NewTerm(attr, algebra.OpEQ, vals[k])
			}
		}
	}
	if bestCount > total {
		return nil, false
	}
	return algebra.Predicate{algebra.Conjunct{bestTerm}}, true
}
