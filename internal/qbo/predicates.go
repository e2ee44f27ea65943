package qbo

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

// rowClass classifies the joined tuples against R for one projection
// mapping: required rows must be selected (their projected value's full
// multiplicity is needed), excluded rows must not be, and optional rows may
// go either way (their projected value has surplus multiplicity in the
// join). Final verification resolves the optional rows.
type rowClass struct {
	required []int
	excluded []int
	optional []int
	feasible bool
}

// groups is one projection mapping's row groups (classifyCodes): need
// holds R's multiplicity per group, and first the index in R of each
// group's first tuple (every group but the last holds R's tuples).
type groups struct {
	of    []uint32 // row → group
	need  []int
	first []int
}

// equal reports whether gs and o group the join's rows alike.
func (gs groups) equal(o groups) bool {
	return slices.Equal(gs.of, o.of) && slices.Equal(gs.need, o.need) && slices.Equal(gs.first, o.first)
}

// classifyCodes classifies the join's rows for the projection onto columns
// idx. It translates R's tuples into tuples of the columns' codes (codeOf)
// and groups the rows by their projected code tuples: two projections are
// KeyEqual iff their code tuples agree, because the codes stand for
// KeyEqual classes. R's distinct code tuples are the first groups, needing
// R's multiplicities, and one last group, needing nothing, holds every
// other row. The mapping is feasible iff every value of R has a code and
// no group holds fewer rows than R needs.
func classifyCodes(ix *joinIndex, idx []int, r *relation.Relation) (rowClass, groups) {
	cols := make([][]uint32, len(idx))
	for p, ci := range idx {
		cols[p] = ix.col.Col(ci).Codes
	}
	// A code tuple's group is looked up by the tuple's bytes.
	ids := map[string]int{}
	var buf []byte
	key := func(t []uint32) []byte {
		buf = buf[:0]
		for _, c := range t {
			buf = binary.LittleEndian.AppendUint32(buf, c)
		}
		return buf
	}
	// inFirst marks the codes of R's first column: a row holding another
	// code there is in the last group without a lookup of its whole tuple.
	var inFirst []bool
	if len(idx) > 0 {
		inFirst = make([]bool, len(ix.col.Col(idx[0]).Dict))
	}
	var need, first []int
	t := make([]uint32, len(idx))
	for i, rt := range r.Tuples {
		for p, ci := range idx {
			c, ok := ix.codeOf(ci, rt[p])
			if !ok {
				return rowClass{}, groups{}
			}
			t[p] = c
		}
		if inFirst != nil {
			inFirst[t[0]] = true
		}
		k := key(t)
		id, ok := ids[string(k)]
		if !ok {
			id = len(need)
			ids[string(k)] = id
			need = append(need, 0)
			first = append(first, i)
		}
		need[id]++
	}
	rest := len(need)
	need = append(need, 0)

	of := make([]uint32, ix.j.Len())
	have := make([]int, len(need))
	for ri := range of {
		gr := rest
		if inFirst == nil || inFirst[cols[0][ri]] {
			for p := range cols {
				t[p] = cols[p][ri]
			}
			if id, ok := ids[string(key(t))]; ok {
				gr = id
			}
		}
		of[ri] = uint32(gr)
		have[gr]++
	}
	for gr := 0; gr < rest; gr++ {
		if have[gr] < need[gr] {
			return rowClass{}, groups{}
		}
	}
	rc := rowClass{feasible: true}
	for ri, gr := range of {
		switch {
		case int(gr) == rest:
			rc.excluded = append(rc.excluded, ri)
		case have[gr] == need[gr]:
			rc.required = append(rc.required, ri)
		default:
			rc.optional = append(rc.optional, ri)
		}
	}
	return rc, groups{of: of, need: need, first: first}
}

// anchors picks, from the optional rows in order, one row per needed result
// tuple (respecting multiplicities) to serve as the anchor set when nothing
// is strictly required.
func (gs groups) anchors(optional []int) []int {
	left := slices.Clone(gs.need)
	var out []int
	for _, ri := range optional {
		if gr := gs.of[ri]; left[gr] > 0 {
			left[gr]--
			out = append(out, ri)
		}
	}
	return out
}

// generateForJoin offers the candidates of every projection mapping of one
// join and returns the number of predicate searches it ran. The search
// reads a mapping only through its row classification and row groups, and
// the classification follows from the groups, so mappings with equal groups
// are offered the same predicates in the same order (DESIGN.md §15). The
// search therefore runs once per distinct grouping: a later mapping whose
// groups equal an earlier one's re-offers that search's predicates, in
// order, with its own projection. Each offer passes the same cap and seen
// checks as a search of its own would, and a search stops only once the
// cap is reached, after which nothing more is added.
func (g *generator) generateForJoin(ix *joinIndex, tables []string) int {
	type searched struct {
		groups groups
		offers []algebra.Predicate
	}
	var runs []searched
	for _, m := range g.projectionMappings(ix) {
		if g.full() {
			break
		}
		if k := slices.IndexFunc(runs, func(r searched) bool { return r.groups.equal(m.groups) }); k >= 0 {
			for _, pred := range runs[k].offers {
				g.add(tables, m.proj, clonePredicate(pred))
			}
			continue
		}
		var offers []algebra.Predicate
		g.search(ix, m.rows, m.groups, func(pred algebra.Predicate) bool {
			offers = append(offers, pred)
			g.add(tables, m.proj, pred)
			return g.full()
		})
		runs = append(runs, searched{m.groups, offers})
	}
	return len(runs)
}

// clonePredicate copies p's conjunct slices, so that a replayed query
// shares none with the recorded one.
func clonePredicate(p algebra.Predicate) algebra.Predicate {
	c := slices.Clone(p)
	for i, conj := range c {
		c[i] = slices.Clone(conj)
	}
	return c
}

// search offers, in order, the predicates that select exactly R for one
// row classification rc and its groups gs: TRUE, the grow search's
// conjuncts, and the cluster DNF with its variants. offer returns true to
// stop the search.
func (g *generator) search(ix *joinIndex, rc rowClass, gs groups, offer func(algebra.Predicate) bool) {
	// TRUE selects every row: exact iff no row is excluded and no group
	// holds more rows than R needs.
	if len(rc.excluded) == 0 && len(rc.optional) == 0 && offer(algebra.True()) {
		return
	}
	if len(rc.required) == 0 {
		// Every result tuple has surplus multiplicity in the join, so no
		// row is individually forced. Anchor the covering-term machinery on
		// a greedy system of distinct rows realising R; the exact-bag
		// check of every candidate keeps this safe.
		rc.required = gs.anchors(rc.optional)
		if len(rc.required) == 0 {
			return
		}
	}
	s := newGrowSearch(ix, g.coveringTermPools(ix, rc.required), rc, gs, g.r.Len())
	stop := false
	s.run(func(path []int) bool {
		if s.accepts(path) {
			stop = offer(algebra.Predicate{s.conjunct(path)})
		}
		return stop
	})
	if stop {
		return
	}

	// DNF by categorical clustering: split the required rows by the value
	// of one categorical attribute and synthesize a conjunct per cluster.
	g.generateClusterDNF(ix, rc, gs, offer)
}

// attrPool is one attribute's covering terms.
type attrPool struct {
	ci    int // the attribute's column in the join
	terms []algebra.Term
}

// coveringTermPools builds, per attribute in name order, terms satisfied by
// every row of rows (candidates for conjunct membership).
func (g *generator) coveringTermPools(ix *joinIndex, rows []int) []attrPool {
	var pools []attrPool
	for _, ci := range ix.byName {
		var pool []algebra.Term
		switch t := ix.j.Schema()[ci].Type; {
		case t.Numeric():
			pool = numericCoveringTerms(ix, ci, rows)
		case t == relation.KindString || t == relation.KindBool:
			pool = categoricalCoveringTerms(ix, ci, rows)
		}
		if len(pool) > maxTermsPerAttrPool {
			pool = pool[:maxTermsPerAttrPool]
		}
		if len(pool) > 0 {
			pools = append(pools, attrPool{ci: ci, terms: pool})
		}
	}
	return pools
}

// numericCoveringTerms proposes bounds that hold for all rows, anchored at
// data values: A ≥ min, A ≤ max, and strict versions at the nearest outside
// values of the column (which is where real queries put constants, cf. the
// paper's Q3: year > 1982 AND year <= 1987), found by binary search in the
// column's memoised domain.
func numericCoveringTerms(ix *joinIndex, ci int, rows []int) []algebra.Term {
	if len(rows) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ri := range rows {
		// A row holding NULL or NaN gets no bounds: NULL matches no
		// comparison, and NaN compares equal to every number, so no strict
		// bound covers it.
		v := ix.col.Cell(ri, ci)
		if !v.Kind.Numeric() || math.IsNaN(v.AsFloat()) {
			return nil
		}
		f := v.AsFloat()
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	dom := ix.numericDomain(ci)
	if len(dom) == 0 || (dom[0] >= lo && dom[len(dom)-1] <= hi) {
		return nil // attribute cannot separate anything
	}
	// Nearest values outside [lo, hi] in the full column, to anchor strict
	// bounds.
	below, above := math.Inf(-1), math.Inf(1)
	if i := sort.SearchFloat64s(dom, lo); i > 0 {
		below = dom[i-1]
	}
	if i := sort.Search(len(dom), func(i int) bool { return dom[i] > hi }); i < len(dom) {
		above = dom[i]
	}
	attr := ix.j.Schema()[ci].Name
	kind := ix.j.Schema()[ci].Type
	mk := func(f float64) relation.Value {
		if kind == relation.KindInt && f == math.Trunc(f) {
			return relation.Int(int64(f))
		}
		return relation.Float(f)
	}
	var pool []algebra.Term
	pool = append(pool, algebra.NewTerm(attr, algebra.OpGE, mk(lo)))
	if !math.IsInf(below, -1) {
		pool = append(pool, algebra.NewTerm(attr, algebra.OpGT, mk(below)))
	}
	pool = append(pool, algebra.NewTerm(attr, algebra.OpLE, mk(hi)))
	if !math.IsInf(above, 1) {
		pool = append(pool, algebra.NewTerm(attr, algebra.OpLT, mk(above)))
	}
	return pool
}

// categoricalCoveringTerms proposes an equality / IN term over the rows'
// value set. A row holding NULL gets none: NULL matches no comparison, so no
// such term would cover it.
func categoricalCoveringTerms(ix *joinIndex, ci int, rows []int) []algebra.Term {
	cd := ix.col.Col(ci)
	if len(ix.marks) < len(cd.Dict) {
		ix.marks = make([]bool, len(cd.Dict))
	}
	var codes []uint32
	defer func() {
		for _, c := range codes {
			ix.marks[c] = false
		}
	}()
	for _, ri := range rows {
		c := cd.Codes[ri]
		if cd.Dict[c].IsNull() {
			return nil
		}
		if !ix.marks[c] {
			ix.marks[c] = true
			codes = append(codes, c)
		}
	}
	// If the rows cover the whole active domain the attribute cannot
	// separate.
	if len(codes) == 0 || len(codes) == len(cd.Dict) {
		return nil
	}
	attr := ix.j.Schema()[ci].Name
	if len(codes) == 1 {
		return []algebra.Term{algebra.NewTerm(attr, algebra.OpEQ, cd.Dict[codes[0]])}
	}
	set := make([]relation.Value, len(codes))
	for i, c := range codes {
		set[i] = cd.Dict[c]
	}
	return []algebra.Term{algebra.NewSetTerm(attr, algebra.OpIn, set)}
}

// generateClusterDNF builds disjunctive candidates: the result-producing
// rows are clustered by the value of one categorical attribute; each cluster
// yields an equality-anchored conjunct, refined with up to two covering
// terms when the equality alone admits excluded rows. When the initial
// clusters (from the required rows) under-cover R — common when projected
// values collide and most result rows are "optional" — a residual-repair
// loop adds clusters for the optional rows that supply the missing result
// tuples. This produces queries like the paper's Q4 (a disjunction of
// playerID equalities) and Q5/Q6 (an equality plus numeric bounds). Each
// exact DNF and its variants go to offer, which returns true to stop.
//
// Cluster values are dictionary codes of the attribute's column; each
// cluster's rows, refinements and conjunct are memoised per code
// (clusterSet), so repair rounds and the variant loop reuse them.
func (g *generator) generateClusterDNF(ix *joinIndex, rc rowClass, gs groups, offer func(algebra.Predicate) bool) {
	schema := ix.j.Schema()
	excl := make([]bool, ix.j.Len())
	for _, ri := range rc.excluded {
		excl[ri] = true
	}
	got := make([]int, len(gs.need)) // selected rows per group

	for ci, col := range schema {
		if col.Type != relation.KindString {
			continue
		}
		cd := ix.col.Col(ci)
		// Initial cluster values: the required rows' values, in order of
		// first appearance.
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
			// Count the selected rows per group against R's need. Every
			// row a cluster predicate can select carries one of the cluster
			// values, so the scan touches only those rows, and only their
			// predicate cells.
			rows := &cells{col: ix.col}
			for _, a := range pred.Attrs() {
				rows.add(schema.IndexOf(a))
			}
			match := pred.Compile(rows.schema)
			clear(got)
			for _, c := range values {
				for _, ri := range cs.get(c).good {
					if match(rows.row(ri)) {
						got[gs.of[ri]]++
					}
				}
			}
			overshoot, missing := false, false
			for gr, n := range got {
				overshoot = overshoot || n > gs.need[gr]
				missing = missing || n < gs.need[gr]
			}
			if overshoot {
				break // repair can only add rows, never remove
			}
			if !missing {
				// got == need exactly and the cluster builder already
				// rejected every excluded row: the query is verified.
				if offer(pred) {
					return
				}
				// Enrich QC with variants that tighten one cluster by a
				// covering term: they select the same rows on D (covering
				// terms hold on every selected row) but behave differently
				// on modified databases, giving QFE something to winnow.
				for vi, c := range values {
					for k, extra := range g.clusterRefinements(cs, cs.get(c)) {
						if k >= 3 {
							break
						}
						variant := make(algebra.Predicate, len(pred))
						for pi, conj := range pred {
							variant[pi] = append(algebra.Conjunct(nil), conj...)
						}
						variant[vi] = append(variant[vi], extra.t)
						if offer(variant) {
							return
						}
					}
				}
				break
			}
			// Repair: adopt cluster values of non-excluded rows that supply
			// missing result tuples. When several values can supply the
			// same missing tuple (projected-value collisions), prefer the
			// value whose cluster contains the fewest excluded rows —
			// "clean" clusters cannot cause overshoot in later rounds — and
			// among those the smallest value key. The missing groups are
			// taken in the order of their result tuples' keys.
			badCount := make([]int, len(cd.Dict))
			for _, ri := range rc.excluded {
				badCount[cd.Codes[ri]]++
			}
			best := make([]int, len(got)) // per group: the code chosen, or -1
			for gr := range best {
				best[gr] = -1
			}
			for ri, ex := range excl {
				gr := gs.of[ri]
				if ex || got[gr] >= gs.need[gr] {
					continue
				}
				c := cd.Codes[ri]
				if slices.Contains(values, c) {
					continue
				}
				cur := best[gr]
				if cur < 0 || badCount[c] < badCount[cur] ||
					(badCount[c] == badCount[cur] && cd.Dict[c].Key() < cd.Dict[cur].Key()) {
					best[gr] = int(c)
				}
			}
			type supplier struct {
				key  string
				code uint32
			}
			var supply []supplier
			for gr, c := range best {
				if c >= 0 {
					supply = append(supply, supplier{g.r.Tuples[gs.first[gr]].Key(), uint32(c)})
				}
			}
			sort.Slice(supply, func(a, b int) bool { return supply[a].key < supply[b].key })
			added := false
			for _, s := range supply {
				if slices.Contains(values, s.code) {
					continue
				}
				if len(values) >= maxDisjuncts {
					break
				}
				values = append(values, s.code)
				added = true
			}
			if !added {
				break
			}
		}
	}
}

// clusterSet memoises, per code of one cluster attribute's column, what the
// cluster DNF computes about that value's cluster.
type clusterSet struct {
	ix     *joinIndex
	ci     int
	excl   []bool     // row-indexed: the row must not be selected
	byCode []*cluster // nil until the code is first a cluster value
}

// cluster is one cluster value's memo.
type cluster struct {
	good, bad []int     // the value's non-excluded / excluded rows
	refs      []colTerm // clusterRefinements(good), once refsDone
	refsDone  bool
	conj      algebra.Conjunct // the built conjunct, once one succeeded
}

// colTerm is a covering term with its column in the join.
type colTerm struct {
	t  algebra.Term
	ci int
}

func (cs *clusterSet) get(c uint32) *cluster {
	cl := cs.byCode[c]
	if cl == nil {
		cl = &cluster{}
		for _, ri := range cs.ix.rowsOf(cs.ci, c) {
			if cs.excl[ri] {
				cl.bad = append(cl.bad, ri)
			} else {
				cl.good = append(cl.good, ri)
			}
		}
		cs.byCode[c] = cl
	}
	return cl
}

// buildClusterPredicate assembles one DNF: per cluster value an equality
// conjunct, refined with up to two covering terms (over the cluster's
// non-excluded rows) until the conjunct rejects every excluded row of the
// cluster. The search keeps the first single term, else the first pair, in
// clusterRefinements order whose reject sets with A = v's cover the bad
// rows; a term's reject set is computed when the search first reaches it.
func (g *generator) buildClusterPredicate(cs *clusterSet, values []uint32) (algebra.Predicate, bool) {
	cd := cs.ix.col.Col(cs.ci)
	attr := cs.ix.j.Schema()[cs.ci].Name
	var pred algebra.Predicate
	for _, c := range values {
		cl := cs.get(c)
		if cl.conj != nil {
			pred = append(pred, cl.conj)
			continue
		}
		if len(cl.good) == 0 {
			return nil, false
		}
		conj := algebra.Conjunct{algebra.NewTerm(attr, algebra.OpEQ, cd.Dict[c])}
		if n := len(cl.bad); n > 0 {
			// Every bad row holds code c, so A = v's reject set is empty
			// or full depending on its one per-code outcome.
			eqRejects := !conj[0].Matches(cd.Dict[c])
			refs := g.clusterRefinements(cs, cl)
			rej := make([][]uint64, len(refs))
			rejects := func(i int) []uint64 {
				if rej[i] == nil {
					rej[i] = cs.ix.rejects(&refs[i].t, refs[i].ci, cl.bad)
				}
				return rej[i]
			}
			refined := false
			for i := range refs {
				if eqRejects || covers(n, rejects(i), nil) {
					conj, refined = append(conj, refs[i].t), true
					break
				}
			}
			if !refined {
				// Pairs of covering terms from different attributes.
			pairSearch:
				for a := range refs {
					for b := a + 1; b < len(refs); b++ {
						if refs[a].t.Attr == refs[b].t.Attr && refs[a].t.Op == refs[b].t.Op {
							continue
						}
						if covers(n, rejects(a), rejects(b)) {
							conj, refined = append(conj, refs[a].t, refs[b].t), true
							break pairSearch
						}
					}
				}
			}
			if !refined {
				return nil, false
			}
		}
		cl.conj = conj
		pred = append(pred, conj)
	}
	return pred, true
}

// clusterRefinements proposes single covering terms for a cluster's
// non-excluded rows, in a deterministic order (attribute name, then pool
// order), memoised per cluster.
func (g *generator) clusterRefinements(cs *clusterSet, cl *cluster) []colTerm {
	if !cl.refsDone {
		for _, p := range g.coveringTermPools(cs.ix, cl.good) {
			for _, t := range p.terms {
				cl.refs = append(cl.refs, colTerm{t: t, ci: p.ci})
			}
		}
		cl.refsDone = true
	}
	return cl.refs
}

// cells reads a few columns of the join, one row at a time, into a scratch
// tuple. The cluster checks test rows on it and never materialise the
// join's rows.
type cells struct {
	col    *relation.Columnar
	cols   []int // the join's columns read
	schema relation.Schema
	buf    relation.Tuple
}

// add reads column ci too, unless it is read already or missing (-1).
func (c *cells) add(ci int) {
	if ci < 0 || slices.Contains(c.cols, ci) {
		return
	}
	c.cols = append(c.cols, ci)
	c.schema = append(c.schema, c.col.Schema()[ci])
	c.buf = append(c.buf, relation.Value{})
}

// row loads row ri's cells into the scratch tuple, valid until the next
// call.
func (c *cells) row(ri int) relation.Tuple {
	for k, ci := range c.cols {
		c.buf[k] = c.col.Cell(ri, ci)
	}
	return c.buf
}
