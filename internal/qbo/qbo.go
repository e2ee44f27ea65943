// Package qbo reverse-engineers candidate SPJ queries from a database-result
// pair (D, R), playing the role of the paper's Query Generator module (§4),
// which adopts the QBO approach of Tran et al. [21]. Given (D, R) it
// produces queries Q with Q(D) = R exactly (bag semantics), of the form
// π_ℓ(σ_p(J)) with p in DNF.
//
// The generator enumerates (a) join schemas — connected-by-foreign-key
// subsets of the tables, (b) projection mappings from R's columns onto the
// joined schema, and (c) selection predicates built from covering terms
// (terms satisfied by every tuple that must appear in the result) combined
// conjunctively across attributes and disjunctively across categorical
// clusters. Every emitted query reproduces R — verified by evaluation
// (emit, emitVerified) or by construction (the cluster DNF and its variants,
// emitTrusted; DESIGN.md §15) — so the search's bounds only control its
// budget, never correctness.
package qbo

import (
	"fmt"
	"sort"
	"strings"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// Config bounds the candidate search. QBO's other knobs — "the maximum
// number of selection-predicate attributes, the maximum number of joined
// relations, the maximum number of selection predicates in each conjunct,
// etc." (§4) — are the fixed bounds below.
type Config struct {
	// MaxCandidates stops the search once this many verified candidates
	// exist (0 = unlimited).
	MaxCandidates int
}

// The search's fixed bounds. Every join schema of FK-connected tables is
// tried, whatever its size.
const (
	maxPredAttrs          = 3      // distinct attributes per conjunct
	maxTermsPerAttr       = 2      // terms on one attribute in a conjunct (2 allows lo < A ≤ hi)
	maxDisjuncts          = 4      // DNF width explored by categorical clustering
	maxTermsPerAttrPool   = 4      // covering terms generated per attribute
	maxProjectionMappings = 3      // projection mappings tried per join
	maxGrowNodes          = 100000 // conjunction-search nodes per (join, projection) pair
)

// DefaultConfig returns a budget that yields candidate sets of the paper's
// magnitude (≈ 19 for the scientific queries).
func DefaultConfig() Config {
	return Config{MaxCandidates: 64}
}

// Generate produces verified candidate queries for (d, R). Candidates are
// deduplicated by fingerprint and returned in deterministic order, named
// C1, C2, ....
func Generate(d *db.Database, r *relation.Relation, cfg Config) ([]*algebra.Query, error) {
	g := &generator{d: d, r: r, cfg: cfg, seen: map[string]bool{}}
	for _, tables := range connectedTableSubsets(d) {
		if g.full() {
			break
		}
		j, err := db.Join(d, tables)
		if err != nil {
			continue // disconnected combination; skip
		}
		if j.Rel.Len() < r.Len() {
			continue // join too small to produce R under bag semantics
		}
		ix := newJoinIndex(j)
		for _, m := range g.projectionMappings(j) {
			if g.full() {
				break
			}
			g.generateForJoin(ix, tables, m)
		}
	}
	for i, q := range g.out {
		q.Name = fmt.Sprintf("C%d", i+1)
	}
	return g.out, nil
}

type generator struct {
	d    *db.Database
	r    *relation.Relation
	cfg  Config
	out  []*algebra.Query
	seen map[string]bool
}

func (g *generator) full() bool {
	return g.cfg.MaxCandidates > 0 && len(g.out) >= g.cfg.MaxCandidates
}

// emit verifies Q(D) = R by full evaluation and appends the query if new.
func (g *generator) emit(j *db.Joined, tables []string, proj []string, pred algebra.Predicate) {
	if g.full() {
		return
	}
	q := &algebra.Query{Tables: tables, Projection: proj, Pred: pred}
	fp := q.Key()
	if g.seen[fp] {
		return
	}
	res, err := q.EvaluateOnJoined(j.Rel)
	if err != nil || !res.BagEqual(g.r) {
		return
	}
	g.seen[fp] = true
	g.out = append(g.out, q)
}

// emitTrusted appends a query whose exactness the caller has already
// established: the cluster builder's DNF, whose conjuncts reject every
// excluded row and whose residual check is itself a complete verification,
// and its variants, which add one covering term — a term that holds on every
// row the variant's cluster selects.
func (g *generator) emitTrusted(tables, proj []string, pred algebra.Predicate) {
	if g.full() {
		return
	}
	q := &algebra.Query{Tables: tables, Projection: proj, Pred: pred}
	fp := q.Key()
	if g.seen[fp] {
		return
	}
	g.seen[fp] = true
	g.out = append(g.out, q)
}

// verifier carries the per-(join, projection) state that lets emitVerified
// check Q(D) = R by scanning only the rows that can possibly be selected.
// It is sound only for predicates already known to reject every excluded
// row (the combination search guarantees this via exclusion bitmaps, the
// cluster builder via per-cluster bad-row checks).
type verifier struct {
	j       *db.Joined
	tables  []string
	proj    []string
	projIdx []int
	rows    []int // required ∪ optional
	need    *relation.Bag
}

func (g *generator) newVerifier(j *db.Joined, tables, proj []string, rc rowClass) *verifier {
	v := &verifier{j: j, tables: tables, proj: proj, need: g.r.Bag()}
	v.projIdx = make([]int, len(proj))
	for i, p := range proj {
		v.projIdx[i] = j.Rel.Schema.MustIndexOf(p)
	}
	v.rows = append(append([]int(nil), rc.required...), rc.optional...)
	return v
}

// emitVerified appends the query if it is new and selects exactly R from
// the verifier's candidate rows. Multiplicity bookkeeping runs through the
// hash kernel: projected tuples are hashed in place (no materialisation, no
// key strings) and verified on collision.
func (g *generator) emitVerified(v *verifier, pred algebra.Predicate) {
	if g.full() {
		return
	}
	q := &algebra.Query{Tables: v.tables, Projection: v.proj, Pred: pred}
	fp := q.Key()
	if g.seen[fp] {
		return
	}
	match := pred.Compile(v.j.Rel.Schema)
	got := relation.NewBag(v.need.Distinct())
	total := 0
	for _, ri := range v.rows {
		t := v.j.Rel.Tuples[ri]
		if !match(t) {
			continue
		}
		total++
		if got.IncProj(t, v.projIdx, 1) > v.need.CountProj(t, v.projIdx) {
			return // overshoot: cannot equal R
		}
	}
	if total != g.r.Len() {
		return
	}
	g.seen[fp] = true
	g.out = append(g.out, q)
}

// connectedTableSubsets enumerates subsets of tables connected by foreign
// keys, ordered by size then lexicographically. Single tables are always
// connected.
func connectedTableSubsets(d *db.Database) [][]string {
	names := d.TableNames()
	n := len(names)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	idx := map[string]int{}
	for i, t := range names {
		idx[t] = i
	}
	for _, fk := range d.ForeignKeys {
		a, aok := idx[fk.ChildTable]
		b, bok := idx[fk.ParentTable]
		if aok && bok {
			adj[a][b], adj[b][a] = true, true
		}
	}
	var out [][]string
	for mask := 1; mask < 1<<n; mask++ {
		if !maskConnected(mask, adj, n) {
			continue
		}
		var subset []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, names[i])
			}
		}
		out = append(out, subset)
	}
	sort.Slice(out, func(i, k int) bool {
		if len(out[i]) != len(out[k]) {
			return len(out[i]) < len(out[k])
		}
		for x := range out[i] {
			if out[i][x] != out[k][x] {
				return out[i][x] < out[k][x]
			}
		}
		return false
	})
	return out
}

func maskConnected(mask int, adj [][]bool, n int) bool {
	start := -1
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	visited := 1 << start
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for w := 0; w < n; w++ {
			if mask&(1<<w) != 0 && visited&(1<<w) == 0 && adj[v][w] {
				visited |= 1 << w
				queue = append(queue, w)
			}
		}
	}
	return visited == mask
}

// mapping is one feasible projection mapping with its row classification.
type mapping struct {
	proj []string
	rows rowClass
}

// projectionMappings finds assignments of R's columns to joined columns with
// matching types and value containment. Candidates per column are ordered by
// plausibility (name match, exact kind, schema order) and complete mappings
// are kept only when the joint multiset classification is feasible, so a
// spurious single-column match (e.g. an integer that also occurs in some
// float column) cannot poison the search. Each kept mapping carries that
// classification, so the join's rows are classified once per mapping.
// Results are capped at maxProjectionMappings.
func (g *generator) projectionMappings(j *db.Joined) []mapping {
	// Distinct values per joined column, computed at most once per column
	// through the hash kernel (the legacy path rebuilt a key-string set per
	// (R column, joined column) combination), and only for columns that
	// survive the type filter at least once.
	doms := make([]*relation.Bag, j.Rel.Arity())
	colIdx := make([][1]int, j.Rel.Arity())
	domOf := func(ci int) *relation.Bag {
		if doms[ci] == nil {
			colIdx[ci][0] = ci
			dom := relation.NewBag(len(j.Rel.Tuples))
			for _, t := range j.Rel.Tuples {
				dom.IncProj(t, colIdx[ci][:], 1)
			}
			doms[ci] = dom
		}
		return doms[ci]
	}
	// Candidate joined columns per R column.
	cands := make([][]string, g.r.Arity())
	for ri, rc := range g.r.Schema {
		rIdx := [1]int{ri}
		rvals := relation.NewBag(len(g.r.Tuples))
		for _, t := range g.r.Tuples {
			rvals.IncProj(t, rIdx[:], 1)
		}
		type scored struct {
			name string
			rank int
		}
		var cs []scored
		for ci, jc := range j.Rel.Schema {
			if jc.Type != rc.Type && !(jc.Type.Numeric() && rc.Type.Numeric()) {
				continue
			}
			dom := domOf(ci)
			ok := true
			rvals.ForEach(func(t relation.Tuple, _ int) {
				if ok && dom.Count(t) == 0 {
					ok = false
				}
			})
			if !ok {
				continue
			}
			rank := 2
			if jc.Type == rc.Type {
				rank = 1
			}
			if jc.Name == rc.Name || strings.HasSuffix(jc.Name, "."+rc.Name) {
				rank = 0
			}
			cs = append(cs, scored{name: jc.Name, rank: rank})
		}
		if len(cs) == 0 {
			return nil
		}
		sort.SliceStable(cs, func(a, b int) bool { return cs[a].rank < cs[b].rank })
		for _, c := range cs {
			cands[ri] = append(cands[ri], c.name)
		}
	}
	// Depth-first over the cartesian product in plausibility order; keep
	// only feasible mappings, bounding both results and attempts.
	var out []mapping
	attempts := 0
	const maxAttempts = maxProjectionMappings * 32
	cur := make([]string, g.r.Arity())
	var rec func(i int)
	rec = func(i int) {
		if len(out) >= maxProjectionMappings || attempts >= maxAttempts {
			return
		}
		if i == len(cands) {
			attempts++
			m := append([]string(nil), cur...)
			if rc := classifyRows(j, m, g.r); rc.feasible {
				out = append(out, mapping{proj: m, rows: rc})
			}
			return
		}
		for _, c := range cands[i] {
			cur[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
