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
// clusters. Every emitted query reproduces R — TRUE and the conjunct
// search's candidates by counting their selected rows per projected code
// group, and the cluster DNF and its variants by construction (DESIGN.md
// §15) — so the search's bounds only control its budget, never correctness.
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
	// One encoding scope serves every join schema: each base column is
	// hashed once, however many joins read it.
	codes := db.NewCodes(d)
	for _, tables := range connectedTableSubsets(d) {
		if g.full() {
			break
		}
		j, err := codes.Join(tables)
		if err != nil {
			continue // disconnected combination; skip
		}
		if j.Len() < r.Len() {
			continue // join too small to produce R under bag semantics
		}
		g.generateForJoin(newJoinIndex(j), tables)
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

// add appends π_proj(σ_pred(tables)) unless the cap is reached or an equal
// query was added before. The caller has established that the query
// selects exactly R: TRUE and the conjuncts of the grow search match R
// group for group (search, growSearch.accepts), the cluster DNF's conjuncts
// reject every excluded row and its residual check counts the rest, and
// each variant adds to one cluster's conjunct a covering term — a term that
// holds on every row the cluster selects.
func (g *generator) add(tables, proj []string, pred algebra.Predicate) {
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

// mapping is one feasible projection mapping with its row classification
// and its row groups.
type mapping struct {
	proj   []string
	rows   rowClass
	groups groups
}

// projectionMappings finds assignments of R's columns to joined columns with
// matching types and value containment. Candidates per column are ordered by
// plausibility (name match, exact kind, schema order) and complete mappings
// are kept only when the joint multiset classification is feasible, so a
// spurious single-column match (e.g. an integer that also occurs in some
// float column) cannot poison the search. Each kept mapping carries that
// classification, so the join's rows are classified once per mapping.
// Results are capped at maxProjectionMappings.
func (g *generator) projectionMappings(ix *joinIndex) []mapping {
	cands, ok := g.mappingColumns(ix)
	if !ok {
		return nil
	}
	// Depth-first over the cartesian product in plausibility order; keep
	// only feasible mappings, bounding both results and attempts.
	var out []mapping
	attempts := 0
	const maxAttempts = maxProjectionMappings * 32
	cur := make([]int, len(cands))
	var rec func(i int)
	rec = func(i int) {
		if len(out) >= maxProjectionMappings || attempts >= maxAttempts {
			return
		}
		if i == len(cands) {
			attempts++
			if rc, gs := classifyCodes(ix, cur, g.r); rc.feasible {
				proj := make([]string, len(cur))
				for k, ci := range cur {
					proj[k] = ix.j.Schema()[ci].Name
				}
				out = append(out, mapping{proj: proj, rows: rc, groups: gs})
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

// mappingColumns lists, per column of R, the joined columns it may map to,
// most plausible first: those of a compatible type whose dictionary holds
// every value of the R column (joinIndex.holdsAll). It reports false when
// some R column has none.
func (g *generator) mappingColumns(ix *joinIndex) ([][]int, bool) {
	schema := ix.j.Schema()
	cands := make([][]int, g.r.Arity())
	for ri, rc := range g.r.Schema {
		var ranked [3][]int
		for ci, jc := range schema {
			if jc.Type != rc.Type && !(jc.Type.Numeric() && rc.Type.Numeric()) {
				continue
			}
			if !ix.holdsAll(ci, g.r, ri) {
				continue
			}
			rank := 2
			if jc.Type == rc.Type {
				rank = 1
			}
			if jc.Name == rc.Name || strings.HasSuffix(jc.Name, "."+rc.Name) {
				rank = 0
			}
			ranked[rank] = append(ranked[rank], ci)
		}
		cands[ri] = append(append(ranked[0], ranked[1]...), ranked[2]...)
		if len(cands[ri]) == 0 {
			return nil, false
		}
	}
	return cands, true
}
