package qbo

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// The references below are the row-hashing paths that code groups replaced
// (DESIGN.md §15): the Bag-based verification of the grow search's
// conjuncts, the Bag-based row classification and anchor choice, the dense
// grow loop, and Generate with a search per projection mapping.

// verifier carries the per-(join, projection) state that lets emitVerified
// check Q(D) = R by scanning only the rows that can possibly be selected.
// It is sound only for predicates already known to reject every excluded
// row.
type verifier struct {
	rel     *relation.Relation // the join's rows
	projIdx []int
	rows    []int // required ∪ optional
	need    *relation.Bag
	size    int // |R|
}

func newVerifier(rel *relation.Relation, proj []string, rc rowClass, r *relation.Relation) *verifier {
	v := &verifier{rel: rel, need: r.Bag(), size: r.Len()}
	v.projIdx = make([]int, len(proj))
	for i, p := range proj {
		v.projIdx[i] = rel.Schema.MustIndexOf(p)
	}
	v.rows = append(append([]int(nil), rc.required...), rc.optional...)
	return v
}

// emitVerified reports whether pred selects exactly R from the verifier's
// rows, hashing each selected row's projection into a Bag.
func emitVerified(v *verifier, pred algebra.Predicate) bool {
	match := pred.Compile(v.rel.Schema)
	got := relation.NewBag(v.size)
	total := 0
	for _, ri := range v.rows {
		t := v.rel.Tuples[ri]
		if !match(t) {
			continue
		}
		total++
		if p := t.Project(v.projIdx); got.Inc(p, 1) > v.need.Count(p) {
			return false // overshoot: cannot equal R
		}
	}
	return total == v.size
}

// classifyRows classifies the join's rows (rel) for projection proj by
// hashing every row's projection into a Bag.
func classifyRows(rel *relation.Relation, proj []string, r *relation.Relation) rowClass {
	idx := make([]int, len(proj))
	for i, p := range proj {
		idx[i] = rel.Schema.MustIndexOf(p)
	}
	need := r.Bag()
	have := relation.NewBag(len(rel.Tuples))
	for _, t := range rel.Tuples {
		have.Inc(t.Project(idx), 1)
	}
	short := false
	need.ForEach(func(t relation.Tuple, n int) {
		if have.Count(t) < n {
			short = true
		}
	})
	if short {
		return rowClass{feasible: false}
	}
	var rc rowClass
	rc.feasible = true
	for ri, t := range rel.Tuples {
		p := t.Project(idx)
		n := need.Count(p)
		switch {
		case n == 0:
			rc.excluded = append(rc.excluded, ri)
		case n == have.Count(p):
			rc.required = append(rc.required, ri)
		default:
			rc.optional = append(rc.optional, ri)
		}
	}
	return rc
}

// greedyAnchors picks, from the optional rows of the join's rows rel, one
// row per needed result tuple (respecting multiplicities), counting through
// R's Bag.
func greedyAnchors(rel *relation.Relation, proj []string, r *relation.Relation, optional []int) []int {
	idx := make([]int, len(proj))
	for i, p := range proj {
		idx[i] = rel.Schema.MustIndexOf(p)
	}
	need := r.Bag()
	var anchors []int
	for _, ri := range optional {
		t := rel.Tuples[ri]
		if need.Count(t.Project(idx)) > 0 {
			need.Inc(t.Project(idx), -1)
			anchors = append(anchors, ri)
		}
	}
	return anchors
}

// columnBag is a Bag of every row's value in column ci of rel.
func columnBag(rel *relation.Relation, ci int) *relation.Bag {
	dom := relation.NewBag(rel.Len())
	idx := []int{ci}
	for _, t := range rel.Tuples {
		dom.Inc(t.Project(idx), 1)
	}
	return dom
}

// holdsAllReference is the containment test through columnBag.
func holdsAllReference(dom, vals *relation.Bag) bool {
	ok := true
	vals.ForEach(func(t relation.Tuple, _ int) {
		if dom.Count(t) == 0 {
			ok = false
		}
	})
	return ok
}

// runDense is run with every depth's admit mask ANDed in full.
func (s *growSearch) runDense(offer func(path []int) bool) int {
	words := (s.excluded + 63) / 64
	full := make([]uint64, words)
	for i := range full {
		full[i] = ^uint64(0)
	}
	if bits := s.excluded % 64; bits != 0 && words > 0 {
		full[words-1] = (1 << bits) - 1
	}
	empty := func(mask []uint64) bool {
		for _, w := range mask {
			if w != 0 {
				return false
			}
		}
		return true
	}
	scratch := make([][]uint64, maxPredAttrs+1)
	for i := range scratch {
		scratch[i] = make([]uint64, words)
	}
	used := make([]bool, s.arity)
	nodes, stop := 0, false
	var grow func(start int, path []int, admit []uint64, depth int)
	grow = func(start int, path []int, admit []uint64, depth int) {
		if stop {
			return
		}
		nodes++
		if nodes > maxGrowNodes {
			return
		}
		if len(path) > 0 && empty(admit) {
			stop = offer(path)
			return
		}
		if depth >= maxPredAttrs {
			return
		}
		next := scratch[depth]
		for u := start; u < len(s.admits); u++ {
			if used[s.cols[u]] {
				continue
			}
			narrowed := false
			for w := range next {
				next[w] = admit[w] & s.admits[u][w]
				if next[w] != admit[w] {
					narrowed = true
				}
			}
			if len(path) > 0 && !narrowed {
				continue
			}
			used[s.cols[u]] = true
			grow(u+1, append(path, u), next, depth+1)
			used[s.cols[u]] = false
		}
	}
	grow(0, make([]int, 0, maxPredAttrs), full, 0)
	return nodes
}

// refInput is one (D, R) pair of the differential tests.
type refInput struct {
	name string
	d    *db.Database
	r    *relation.Relation
}

// refInputs are prefixes of the two benchmark corpora, small random tables
// whose cells include NULL, NaN and Int/Float pairs that share a dictionary
// code, and, with paper set, the paper's nine instances. Under forced hash
// collisions every Bag probe is a linear scan, so the paper's joins of
// thousands of rows run only without them.
func refInputs(t *testing.T, corpusPrefix int, paper bool) []refInput {
	t.Helper()
	sci, bb, ad := datasets.NewScientific(), datasets.NewBaseball(), datasets.NewAdult()
	var out []refInput
	for _, p := range []struct {
		name string
		d    *db.Database
		q    *algebra.Query
	}{
		{"scientific/Q1", sci.DB, sci.Q1}, {"scientific/Q2", sci.DB, sci.Q2},
		{"baseball/Q3", bb.DB, bb.Q3}, {"baseball/Q4", bb.DB, bb.Q4},
		{"baseball/Q5", bb.DB, bb.Q5}, {"baseball/Q6", bb.DB, bb.Q6},
		{"adult/U1", ad.DB, ad.Targets[0]}, {"adult/U2", ad.DB, ad.Targets[1]},
		{"adult/U3", ad.DB, ad.Targets[2]},
	} {
		if !paper {
			break
		}
		r, err := p.q.Evaluate(p.d)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, refInput{p.name, p.d, r})
	}
	seed3 := scenario.DefaultGenOptions()
	seed3.Rows = scenario.MinMax{Min: 6, Max: 12}
	for _, c := range []struct {
		seed int64
		opts scenario.GenOptions
	}{{1, scenario.DefaultGenOptions()}, {3, seed3}} {
		scs, err := scenario.GenerateCorpus(c.seed, corpusPrefix, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			out = append(out, refInput{sc.Name, sc.DB, sc.R})
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		out = append(out, randomRefInput(rng))
	}
	return out
}

// randomRefInput is one table of rejectTestPool cells, with R the
// projection of a random subset of its rows onto one or two columns. Small
// pools make most projected values recur, so many rows are optional and
// some mappings have no required row at all.
func randomRefInput(rng *rand.Rand) refInput {
	kinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBool}
	rel := relation.New("T", relation.NewSchema("i", kinds[0], "f", kinds[1], "s", kinds[2], "b", kinds[3]))
	rows := 20 + rng.Intn(60)
	for r := 0; r < rows; r++ {
		t := make(relation.Tuple, len(kinds))
		for ci, k := range kinds {
			pool := rejectTestPool(k)
			t[ci] = pool[rng.Intn(len(pool))]
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	d := db.New()
	d.MustAddTable(rel)
	proj := rng.Perm(len(kinds))[:1+rng.Intn(2)]
	names := make([]string, len(proj))
	for k, ci := range proj {
		names[k] = rel.Schema[ci].Name
	}
	r := relation.New("R", slices.Clone(rel.Schema))
	for _, ri := range rng.Perm(rows)[:1+rng.Intn(rows/2)] {
		r.Tuples = append(r.Tuples, rel.Tuples[ri])
	}
	r, err := r.Project(names)
	if err != nil {
		panic(err)
	}
	return refInput{name: "random", d: d, r: r}
}

// forEachJoin calls f with each join Generate would consider for in, and
// its rows, with a generator over in and no candidate cap.
func forEachJoin(t *testing.T, in refInput, f func(g *generator, ix *joinIndex, rel *relation.Relation)) {
	t.Helper()
	g := &generator{d: in.d, r: in.r, seen: map[string]bool{}}
	for _, tables := range connectedTableSubsets(in.d) {
		j, err := db.Join(in.d, tables)
		if err != nil || j.Len() < in.r.Len() {
			continue
		}
		f(g, newJoinIndex(j), j.Relation())
	}
}

// TestCodeClassificationMatchesClassifyRows checks classification on codes
// against the Bag-based reference on every projection mapping
// projectionMappings attempts — the combinations of candidate columns in its
// order, up to its bounds on attempts and on feasible mappings — comparing
// feasibility, the three row lists and, where no row is required, the
// anchors. The containment test that picks the candidate columns is checked
// against a Bag over every row. Inputs are refInputs', with and without
// forced hash collisions.
func TestCodeClassificationMatchesClassifyRows(t *testing.T) {
	defer relation.ForceHashCollisionsForTesting(0)
	var attempts, feasible, anchored int
	for _, collisionBits := range []int{0, 2} {
		relation.ForceHashCollisionsForTesting(collisionBits)
		for _, in := range refInputs(t, 60, collisionBits == 0) {
			forEachJoin(t, in, func(g *generator, ix *joinIndex, rel *relation.Relation) {
				doms := make([]*relation.Bag, rel.Arity())
				for ri, rc := range in.r.Schema {
					vals := relation.NewBag(in.r.Len())
					for _, tu := range in.r.Tuples {
						vals.Inc(tu.Project([]int{ri}), 1)
					}
					for ci, jc := range rel.Schema {
						if jc.Type != rc.Type && !(jc.Type.Numeric() && rc.Type.Numeric()) {
							continue
						}
						if doms[ci] == nil {
							doms[ci] = columnBag(rel, ci)
						}
						if got, want := ix.holdsAll(ci, in.r, ri), holdsAllReference(doms[ci], vals); got != want {
							t.Fatalf("%s: R column %s in %s: holdsAll %v, reference %v", in.name, rc.Name, jc.Name, got, want)
						}
					}
				}
				cands, ok := g.mappingColumns(ix)
				if !ok {
					return
				}
				cur := make([]int, len(cands))
				n, kept := 0, 0
				var rec func(i int)
				rec = func(i int) {
					if kept >= maxProjectionMappings || n >= maxProjectionMappings*32 {
						return
					}
					if i < len(cands) {
						for _, c := range cands[i] {
							cur[i] = c
							rec(i + 1)
						}
						return
					}
					n++
					proj := make([]string, len(cur))
					for k, ci := range cur {
						proj[k] = rel.Schema[ci].Name
					}
					got, gs := classifyCodes(ix, cur, in.r)
					want := classifyRows(rel, proj, in.r)
					if got.feasible != want.feasible ||
						!slices.Equal(got.required, want.required) ||
						!slices.Equal(got.optional, want.optional) ||
						!slices.Equal(got.excluded, want.excluded) {
						t.Fatalf("collisions %d, %s, %v: classes on codes %+v, reference %+v",
							collisionBits, in.name, proj, got, want)
					}
					attempts++
					if !got.feasible {
						return
					}
					feasible++
					kept++
					if len(got.required) == 0 {
						anchored++
						if a, b := gs.anchors(got.optional), greedyAnchors(rel, proj, in.r, got.optional); !slices.Equal(a, b) {
							t.Fatalf("collisions %d, %s, %v: anchors %v, reference %v", collisionBits, in.name, proj, a, b)
						}
					}
				}
				rec(0)
			})
		}
	}
	t.Logf("%d mappings attempted, %d feasible, %d with anchors", attempts, feasible, anchored)
	if feasible == 0 || anchored == 0 || feasible == attempts {
		t.Errorf("inputs too narrow: %d attempted, %d feasible, %d with anchors", attempts, feasible, anchored)
	}
}

// TestCodeGroupAcceptanceMatchesBagReference checks the grow search's
// code-group check against emitVerified on every conjunct the search offers,
// over every mapping projectionMappings keeps on refInputs' inputs,
// greedy-anchor mappings included, with and without forced hash collisions.
func TestCodeGroupAcceptanceMatchesBagReference(t *testing.T) {
	defer relation.ForceHashCollisionsForTesting(0)
	var offered, accepted, anchoredOffers int
	for _, collisionBits := range []int{0, 2} {
		relation.ForceHashCollisionsForTesting(collisionBits)
		for _, in := range refInputs(t, 60, collisionBits == 0) {
			forEachJoin(t, in, func(g *generator, ix *joinIndex, rel *relation.Relation) {
				for _, m := range g.projectionMappings(ix) {
					rc := m.rows
					anchored := len(rc.required) == 0
					if anchored {
						if rc.required = m.groups.anchors(rc.optional); len(rc.required) == 0 {
							continue
						}
					}
					v := newVerifier(rel, m.proj, rc, in.r)
					s := newGrowSearch(ix, g.coveringTermPools(ix, rc.required), rc, m.groups, in.r.Len())
					s.run(func(path []int) bool {
						pred := algebra.Predicate{s.conjunct(path)}
						got, want := s.accepts(path), emitVerified(v, pred)
						if got != want {
							t.Fatalf("collisions %d, %s, %v: %s: code groups accept %v, reference %v",
								collisionBits, in.name, m.proj, pred, got, want)
						}
						offered++
						if got {
							accepted++
						}
						if anchored {
							anchoredOffers++
						}
						return false
					})
				}
			})
		}
	}
	t.Logf("%d conjuncts offered (%d on greedy anchors), %d accepted", offered, anchoredOffers, accepted)
	if accepted == 0 || accepted == offered || anchoredOffers == 0 {
		t.Errorf("inputs too narrow: %d offered, %d on anchors, %d accepted", offered, anchoredOffers, accepted)
	}
}

// searchBoth runs s sparse and dense, each stopped at its stopAfter-th
// offer (never when 0), and fails unless both offer the same conjuncts and
// visit the same number of nodes. It returns the sparse search's offers and
// nodes. Once a search stops it counts no further node, so with stopAfter
// = k the node counts agree on where the k-th offer happened.
func searchBoth(t *testing.T, name string, s *growSearch, stopAfter int) ([][]int, int) {
	t.Helper()
	var offers [2][][]int
	var nodes [2]int
	for k, run := range []func(func([]int) bool) int{s.run, s.runDense} {
		nodes[k] = run(func(path []int) bool {
			offers[k] = append(offers[k], slices.Clone(path))
			return stopAfter > 0 && len(offers[k]) >= stopAfter
		})
	}
	if nodes[0] != nodes[1] {
		t.Fatalf("%s, stop after %d: sparse search visits %d nodes, dense %d", name, stopAfter, nodes[0], nodes[1])
	}
	if len(offers[0]) != len(offers[1]) {
		t.Fatalf("%s, stop after %d: sparse search offers %d conjuncts, dense %d", name, stopAfter, len(offers[0]), len(offers[1]))
	}
	for i := range offers[0] {
		if !slices.Equal(offers[0][i], offers[1][i]) {
			t.Fatalf("%s, stop after %d: offer %d: sparse %v, dense %v", name, stopAfter, i, offers[0][i], offers[1][i])
		}
	}
	return offers[0], nodes[0]
}

// TestSparseGrowMatchesDense checks that the sparse grow search offers the
// same conjuncts as the dense loop and stops at the same node: on the grow
// searches of baseball/Q4's three projection mappings (Generate runs one of
// them, as their row groups are equal), where every offered conjunct fails
// verification and the node budget binds, so the candidate digests cannot
// see the search's order; and on random unit masks 1, 63, 64, 65 and 200
// words wide. Each search also runs stopped at its first and its middle
// offer.
func TestSparseGrowMatchesDense(t *testing.T) {
	check := func(name string, s *growSearch) (offers, nodes int) {
		all, n := searchBoth(t, name, s, 0)
		if len(all) > 0 {
			searchBoth(t, name, s, 1)
			searchBoth(t, name, s, (len(all)+1)/2)
		}
		return len(all), n
	}

	bb := datasets.NewBaseball()
	r, err := bb.Q4.Evaluate(bb.DB)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{d: bb.DB, r: r, cfg: Config{MaxCandidates: 32}, seen: map[string]bool{}}
	searched, capped := 0, 0
	for _, tables := range connectedTableSubsets(bb.DB) {
		if g.full() {
			break
		}
		j, err := db.Join(bb.DB, tables)
		if err != nil || j.Len() < r.Len() {
			continue
		}
		ix := newJoinIndex(j)
		for _, m := range g.projectionMappings(ix) {
			if rc := m.rows; len(rc.required) > 0 {
				s := newGrowSearch(ix, g.coveringTermPools(ix, rc.required), rc, m.groups, r.Len())
				offers, nodes := check("baseball/Q4 "+strings.Join(m.proj, ","), s)
				t.Logf("Q4 %v: %d units, %d-word masks, %d offers, %d nodes", m.proj, len(s.terms), (s.excluded+63)/64, offers, nodes)
				searched++
				if nodes > maxGrowNodes {
					capped++
				}
			}
		}
		g.generateForJoin(ix, tables)
	}
	if searched != 3 || capped == 0 {
		t.Errorf("Q4: %d grow searches checked, the node budget binds on %d; want 3, and at least 1", searched, capped)
	}

	rng := rand.New(rand.NewSource(5))
	for _, words := range []int{1, 63, 64, 65, 200} {
		for trial := 0; trial < 4; trial++ {
			s := &growSearch{excluded: words*64 - rng.Intn(64), arity: 8}
			n := s.excluded
			for u := 0; u < 20+rng.Intn(60); u++ {
				// Densities from "admits nothing" to "admits everything", so
				// units separate alone, narrow, or are skipped as not
				// narrowing; few columns, so the distinct-attribute rule
				// binds.
				density := []float64{0, 0.01, 0.05, 0.3, 0.9, 1}[rng.Intn(6)]
				mask := make([]uint64, words)
				for b := 0; b < n; b++ {
					if rng.Float64() < density {
						mask[b>>6] |= 1 << (b & 63)
					}
				}
				s.admits = append(s.admits, mask)
				s.cols = append(s.cols, rng.Intn(s.arity))
			}
			offers, nodes := check("random", s)
			if words == 200 && trial == 0 {
				t.Logf("random, %d words: %d units, %d offers, %d nodes", words, len(s.admits), offers, nodes)
			}
		}
	}
}

// referenceGenerate is Generate with a search per projection mapping, as
// Generate ran before mappings with equal row groups shared one (DESIGN.md
// §15): TRUE is verified by evaluating it on the join, and the cluster
// DNF's residual check counts projected rows in Bags.
func referenceGenerate(d *db.Database, r *relation.Relation, cfg Config) []*algebra.Query {
	g := &generator{d: d, r: r, cfg: cfg, seen: map[string]bool{}}
	codes := db.NewCodes(d)
	for _, tables := range connectedTableSubsets(d) {
		if g.full() {
			break
		}
		j, err := codes.Join(tables)
		if err != nil || j.Len() < r.Len() {
			continue
		}
		ix := newJoinIndex(j)
		for _, m := range g.projectionMappings(ix) {
			if g.full() {
				break
			}
			g.referenceForJoin(ix, tables, m)
		}
	}
	for i, q := range g.out {
		q.Name = fmt.Sprintf("C%d", i+1)
	}
	return g.out
}

// referenceForJoin searches one (join, projection) pair.
func (g *generator) referenceForJoin(ix *joinIndex, tables []string, m mapping) {
	rc := m.rows
	if len(rc.excluded) == 0 && !g.full() {
		q := &algebra.Query{Tables: tables, Projection: m.proj, Pred: algebra.True()}
		if res, err := q.EvaluateOnColumnar(ix.col); err == nil && res.BagEqual(g.r) {
			g.add(tables, m.proj, algebra.True())
		}
	}
	if len(rc.required) == 0 {
		rc.required = m.groups.anchors(rc.optional)
		if len(rc.required) == 0 {
			return
		}
	}
	if !g.full() {
		s := newGrowSearch(ix, g.coveringTermPools(ix, rc.required), rc, m.groups, g.r.Len())
		s.run(func(path []int) bool {
			if s.accepts(path) {
				g.add(tables, m.proj, algebra.Predicate{s.conjunct(path)})
			}
			return g.full()
		})
	}
	g.referenceClusterDNF(ix, tables, m.proj, rc)
}

// referenceClusterDNF is generateClusterDNF with its residual check on Bags
// of the selected rows' projections, and its repair step keyed by the
// projected cells' Key.
func (g *generator) referenceClusterDNF(ix *joinIndex, tables, proj []string, rc rowClass) {
	schema := ix.j.Schema()
	excl := make([]bool, ix.j.Len())
	for _, ri := range rc.excluded {
		excl[ri] = true
	}
	projIdx := make([]int, len(proj))
	for i, p := range proj {
		projIdx[i] = schema.MustIndexOf(p)
	}
	need := g.r.Bag()
	for ci, col := range schema {
		if col.Type != relation.KindString {
			continue
		}
		if g.full() {
			return
		}
		cd := ix.col.Col(ci)
		var values []uint32
		for _, ri := range rc.required {
			if c := cd.Codes[ri]; !slices.Contains(values, c) {
				values = append(values, c)
				if len(values) > maxDisjuncts {
					break
				}
			}
		}
		if len(values) == 0 || len(values) > maxDisjuncts {
			continue
		}
		cs := &clusterSet{ix: ix, ci: ci, excl: excl, byCode: make([]*cluster, len(cd.Dict))}
		for round := 0; round < 4; round++ {
			pred, ok := g.buildClusterPredicate(cs, values)
			if !ok {
				break
			}
			match := pred.Compile(schema)
			got := relation.NewBag(g.r.Len())
			for _, c := range values {
				for _, ri := range cs.get(c).good {
					if t := ix.j.Row(ri); match(t) {
						got.Inc(t.Project(projIdx), 1)
					}
				}
			}
			overshoot := false
			got.ForEach(func(t relation.Tuple, n int) {
				if n > need.Count(t) {
					overshoot = true
				}
			})
			if overshoot {
				break
			}
			missing, short := relation.NewBag(0), false
			need.ForEach(func(t relation.Tuple, n int) {
				if got.Count(t) < n {
					missing.Inc(t, 1)
					short = true
				}
			})
			if !short {
				g.add(tables, proj, pred)
				for vi, c := range values {
					if g.full() {
						break
					}
					for k, extra := range g.clusterRefinements(cs, cs.get(c)) {
						if k >= 3 {
							break
						}
						variant := make(algebra.Predicate, len(pred))
						for pi, conj := range pred {
							variant[pi] = append(algebra.Conjunct(nil), conj...)
						}
						variant[vi] = append(variant[vi], extra.t)
						g.add(tables, proj, variant)
					}
				}
				break
			}
			badCount := make([]int, len(cd.Dict))
			for _, ri := range rc.excluded {
				badCount[cd.Codes[ri]]++
			}
			bestFor := map[string]uint32{}
			for ri := range excl {
				if excl[ri] {
					continue
				}
				t := ix.j.Row(ri).Project(projIdx)
				if missing.Count(t) == 0 {
					continue
				}
				c := cd.Codes[ri]
				if slices.Contains(values, c) {
					continue
				}
				k := t.Key()
				cur, ok := bestFor[k]
				if !ok || badCount[c] < badCount[cur] ||
					(badCount[c] == badCount[cur] && cd.Dict[c].Key() < cd.Dict[cur].Key()) {
					bestFor[k] = c
				}
			}
			keys := make([]string, 0, len(bestFor))
			for k := range bestFor {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			added := false
			for _, k := range keys {
				c := bestFor[k]
				if slices.Contains(values, c) {
					continue
				}
				if len(values) >= maxDisjuncts {
					break
				}
				values = append(values, c)
				added = true
			}
			if !added {
				break
			}
		}
	}
}

// sharedGroupings counts the projection mappings Generate does not search
// for in: those whose row groups equal an earlier mapping's of the same
// join.
func sharedGroupings(in refInput) int {
	g := &generator{d: in.d, r: in.r, seen: map[string]bool{}}
	n := 0
	for _, tables := range connectedTableSubsets(in.d) {
		j, err := db.Join(in.d, tables)
		if err != nil || j.Len() < in.r.Len() {
			continue
		}
		ms := g.projectionMappings(newJoinIndex(j))
		for i, m := range ms {
			if slices.ContainsFunc(ms[:i], func(e mapping) bool { return e.groups.equal(m.groups) }) {
				n++
			}
		}
	}
	return n
}

// TestGenerateMatchesReference checks that Generate, which searches once
// per distinct row grouping of a join, returns referenceGenerate's
// candidates — names, Keys and order — on refInputs' inputs: the paper's
// nine instances, the first 300 inputs of each benchmark corpus (seeds 1
// and 3) and small random tables. It runs at qfe-server's cap of 32, with
// and without forced hash collisions, and with no cap, where every offer a
// shared search replays reaches the seen check.
func TestGenerateMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Generate and its reference on 669 inputs, three times")
	}
	defer relation.ForceHashCollisionsForTesting(0)
	inputs := refInputs(t, 300, true)
	shared, sharedInputs := 0, 0
	for _, in := range inputs {
		if n := sharedGroupings(in); n > 0 {
			shared += n
			sharedInputs++
		}
	}
	t.Logf("%d inputs; %d of them hold %d mappings that share an earlier mapping's groups", len(inputs), sharedInputs, shared)
	if sharedInputs < 10 {
		t.Errorf("inputs too narrow: %d share a grouping", sharedInputs)
	}
	for _, run := range []struct{ collisionBits, maxCandidates int }{{0, 32}, {0, 0}, {2, 32}} {
		relation.ForceHashCollisionsForTesting(run.collisionBits)
		cfg := Config{MaxCandidates: run.maxCandidates}
		for _, in := range inputs {
			got, err := Generate(in.d, in.r, cfg)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			want := referenceGenerate(in.d, in.r, cfg)
			if len(got) != len(want) {
				t.Fatalf("%+v, %s: %d candidates, reference %d", run, in.name, len(got), len(want))
			}
			for i := range got {
				if got[i].Name != want[i].Name || got[i].Key() != want[i].Key() {
					t.Fatalf("%+v, %s: candidate %d is %s %s, reference %s %s",
						run, in.name, i, got[i].Name, got[i], want[i].Name, want[i])
				}
			}
		}
	}
}

// TestGenerateSearchesQ4Once pins that Generate runs one predicate search
// for baseball/Q4's three projection mappings: R's year maps to
// Manager.year, Team.year or Batting.year, which the (teamID, year)
// foreign keys make equal on every joined row.
func TestGenerateSearchesQ4Once(t *testing.T) {
	bb := datasets.NewBaseball()
	r, err := bb.Q4.Evaluate(bb.DB)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{d: bb.DB, r: r, cfg: Config{MaxCandidates: 32}, seen: map[string]bool{}}
	codes := db.NewCodes(bb.DB)
	var mappings, searches int
	for _, tables := range connectedTableSubsets(bb.DB) {
		j, err := codes.Join(tables)
		if err != nil || j.Len() < r.Len() {
			continue
		}
		ix := newJoinIndex(j)
		mappings += len(g.projectionMappings(ix))
		searches += g.generateForJoin(ix, tables)
	}
	if mappings != 3 || searches != 1 {
		t.Errorf("Q4: %d projection mappings, %d searches; want 3 and 1", mappings, searches)
	}
}
