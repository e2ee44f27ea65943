// Columnar batch evaluation (DESIGN.md §9).
//
// The winnowing loop evaluates every surviving candidate against the same
// joined relation each round. The scalar path (EvaluateOnJoined, and the
// Lemma 5.1 reference testref.DeltaOnJoined) pays one full row-at-a-time
// scan per candidate; the batch path here pays ONE shared pass for a whole
// candidate group:
//
//   - every candidate's DNF predicate is flattened into term ids over a
//     shared, deduplicated term table (candidates overwhelmingly share
//     terms — covering bounds, cluster equalities);
//   - each unique term is evaluated once per dictionary code of its column
//     (relation.Columnar; outcomes are constant on KeyEqual classes, see
//     that file's invariant note) and expanded into a selection bit vector
//     over all rows;
//   - per candidate, the DNF combines term bit vectors with word-wide
//     AND/OR — 64 rows per machine op;
//   - materialisation (projection, DISTINCT) is shared between candidates
//     with the same projection and selection vector, which is exactly the
//     candidates one result-partition block holds.
//
// Every function in this file is observationally identical to its scalar
// counterpart — same tuples, same order, same errors — which the
// differential tests in batch_test.go assert, including under forced hash
// collisions. The scalar path stays the reference implementation and serves
// scenario's target sampler; single queries on a join (Query.Evaluate, qbo's
// verification) run here too, through Query.EvaluateOnColumnar.
package algebra

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"qfe/internal/relation"
)

// batchProgram is the compiled form of a candidate batch: a deduplicated
// term table plus, per query, the DNF structure as term ids.
type batchProgram struct {
	terms []Term
	cols  []int // terms[i]'s column in the joined schema, -1 when absent
	progs [][][]int
}

// termsStructEqual reports whether two terms denote the same comparison —
// the same equivalence Term.Key encodes, decided without building keys.
func termsStructEqual(a, b *Term) bool {
	if a.Attr != b.Attr || a.Op != b.Op || len(a.Set) != len(b.Set) {
		return false
	}
	if a.Op == OpIn || a.Op == OpNotIn {
		// Sets are kept sorted by NewSetTerm, so positional comparison is
		// canonical.
		for i := range a.Set {
			if !a.Set[i].KeyEqual(b.Set[i]) {
				return false
			}
		}
		return true
	}
	return a.Const.KeyEqual(b.Const)
}

// compileBatch flattens the queries' predicates over a shared term table.
// Terms are deduplicated structurally (no key strings), so a term shared by
// many candidates is evaluated once per scan. The table stays small — it
// holds one entry per distinct comparison across the whole batch — so a
// hash-bucketed linear scan is cheaper than string-keyed map probes.
func compileBatch(queries []*Query, schema relation.Schema) *batchProgram {
	bp := &batchProgram{progs: make([][][]int, len(queries))}
	buckets := make(map[uint64][]int)
	for qi, q := range queries {
		conjs := make([][]int, len(q.Pred))
		for ci, conj := range q.Pred {
			ids := make([]int, len(conj))
			for ti := range conj {
				t := &conj[ti]
				h := hashTerm(t)
				id := -1
				for _, cand := range buckets[h] {
					if termsStructEqual(&bp.terms[cand], t) {
						id = cand
						break
					}
				}
				if id < 0 {
					id = len(bp.terms)
					bp.terms = append(bp.terms, *t)
					bp.cols = append(bp.cols, schema.IndexOf(t.Attr))
					buckets[h] = append(buckets[h], id)
				}
				ids[ti] = id
			}
			conjs[ci] = ids
		}
		bp.progs[qi] = conjs
	}
	return bp
}

// hashTerm folds a term's attribute, operator and constant(s) into a bucket
// hash; equality is always verified by termsStructEqual.
func hashTerm(t *Term) uint64 {
	h := uint64(hashWordsOffset)
	for i := 0; i < len(t.Attr); i++ {
		h = (h ^ uint64(t.Attr[i])) * hashWordsPrime
	}
	h = (h ^ uint64(t.Op)) * hashWordsPrime
	if t.Op == OpIn || t.Op == OpNotIn {
		for _, v := range t.Set {
			h = (h ^ v.Hash64()) * hashWordsPrime
		}
	} else {
		h = (h ^ t.Const.Hash64()) * hashWordsPrime
	}
	return h
}

// MatchCodes evaluates t once per dictionary code of a column: out[code]
// reports whether t matches dict[code], and out must hold len(dict)
// entries. By relation.Columnar's invariant (outcomes are constant on
// KeyEqual classes) out[code] is t's outcome on every row holding that code,
// so looking it up per row is exact.
func (t Term) MatchCodes(dict []relation.Value, out []bool) {
	for code, v := range dict {
		out[code] = t.Matches(v)
	}
}

// termBitmaps evaluates every unique term once per dictionary code of its
// column and expands the outcomes into per-term row bit vectors, one pass
// over the column's codes per term. A term whose column is missing from the
// schema gets a nil vector (constant false, mirroring the scalar Compile
// behaviour).
func (bp *batchProgram) termBitmaps(col *relation.Columnar, words int) [][]uint64 {
	tb := make([][]uint64, len(bp.terms))
	arena := make([]uint64, len(bp.terms)*words)
	var outcomes []bool
	for ti := range bp.terms {
		ci := bp.cols[ti]
		if ci < 0 {
			continue
		}
		cd := col.Col(ci)
		if cap(outcomes) < len(cd.Dict) {
			outcomes = make([]bool, len(cd.Dict))
		}
		oc := outcomes[:len(cd.Dict)]
		bp.terms[ti].MatchCodes(cd.Dict, oc)
		bm := arena[ti*words : (ti+1)*words : (ti+1)*words]
		for ri, code := range cd.Codes {
			if oc[code] {
				bm[ri>>6] |= 1 << (ri & 63)
			}
		}
		tb[ti] = bm
	}
	return tb
}

// selectionVector combines one query's compiled DNF over the term bit
// vectors: OR over conjuncts of AND over terms. full is the all-rows vector.
func selectionVector(prog [][]int, termBits [][]uint64, full []uint64, tmp []uint64) []uint64 {
	sel := make([]uint64, len(full))
	if len(prog) == 0 {
		copy(sel, full)
		return sel
	}
	for _, conj := range prog {
		copy(tmp, full)
		alive := true
		for _, ti := range conj {
			bm := termBits[ti]
			if bm == nil {
				alive = false
				break
			}
			live := false
			for w := range tmp {
				tmp[w] &= bm[w]
				if tmp[w] != 0 {
					live = true
				}
			}
			if !live {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		for w := range sel {
			sel[w] |= tmp[w]
		}
	}
	return sel
}

// BatchEvaluateOnJoined evaluates a batch of candidate queries against one
// joined relation in a single shared scan, returning one result per query in
// input order. Results are byte-identical to calling EvaluateOnJoined per
// query (same tuple order, schema and name); batch_test.go pins this
// differentially, including under forced hash collisions. Queries sharing a
// projection and a selection vector share the materialised tuple storage, so
// callers must treat results as immutable — the contract evaluation results
// already have everywhere.
//
// The scan runs on the caller's goroutine: it is a few percent of a round at
// most, and splitting it across workers measured slower on every benchmark
// workload (DESIGN.md §4).
func BatchEvaluateOnJoined(queries []*Query, col *relation.Columnar) ([]*relation.Relation, error) {
	mBatchScans.Inc()
	mBatchQueries.Add(uint64(len(queries)))
	return evaluateColumnar(queries, col)
}

// evaluateColumnar is BatchEvaluateOnJoined without the engine's scan
// counters, which count only the winnowing engine's own scans.
func evaluateColumnar(queries []*Query, col *relation.Columnar) ([]*relation.Relation, error) {
	n := col.NumRows()
	words := (n + 63) / 64
	full := make([]uint64, words)
	for w := range full {
		full[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && words > 0 {
		full[words-1] = 1<<uint(rem) - 1
	}

	bp := compileBatch(queries, col.Schema())
	termBits := bp.termBitmaps(col, words)

	// Selection vectors, deduplicated: queries with equal vectors share one
	// selID (hash of the words, equality-verified on collision). One scratch
	// vector serves every query's DNF combine.
	type selEntry struct {
		hash uint64
		sel  []uint64
	}
	var sels []selEntry
	selByHash := make(map[uint64][]int)
	selID := make([]int, len(queries))
	tmp := make([]uint64, words)
	for qi := range queries {
		sel := selectionVector(bp.progs[qi], termBits, full, tmp)
		h := hashWords(sel)
		id := -1
		for _, cand := range selByHash[h] {
			if slices.Equal(sels[cand].sel, sel) {
				id = cand
				break
			}
		}
		if id < 0 {
			id = len(sels)
			sels = append(sels, selEntry{hash: h, sel: sel})
			selByHash[h] = append(selByHash[h], id)
		}
		selID[qi] = id
	}

	// Materialise each distinct (projection, selection, distinct) combination
	// once; per-query results wrap the shared storage under the query's name.
	// The batch holds few distinct combinations (one per partition block), so
	// a linear scan over direct slice comparisons beats building key strings.
	type matEntry struct {
		proj     []string
		sel      int
		distinct bool
		rel      *relation.Relation
	}
	var mats []matEntry
	findShared := func(proj []string, sel int, distinct bool) *relation.Relation {
		for i := range mats {
			e := &mats[i]
			if e.sel == sel && e.distinct == distinct && slices.Equal(e.proj, proj) {
				return e.rel
			}
		}
		return nil
	}
	out := make([]*relation.Relation, len(queries))
	for qi, q := range queries {
		rel := findShared(q.Projection, selID[qi], q.Distinct)
		if rel == nil {
			// The bag form is materialised (and shared) first; DISTINCT
			// collapses it exactly as the scalar path does.
			bag := findShared(q.Projection, selID[qi], false)
			if bag == nil {
				var err error
				bag, err = materializeSelection(col, sels[selID[qi]].sel, q.Projection)
				if err != nil {
					return nil, fmt.Errorf("algebra: evaluate %s: %w", q.Name, err)
				}
				mats = append(mats, matEntry{proj: q.Projection, sel: selID[qi], rel: bag})
			}
			rel = bag
			if q.Distinct {
				rel = bag.Distinct()
				mats = append(mats, matEntry{proj: q.Projection, sel: selID[qi], distinct: true, rel: rel})
			}
		}
		out[qi] = &relation.Relation{Name: q.Name, Schema: rel.Schema, Tuples: rel.Tuples}
	}
	return out, nil
}

// materializeSelection projects the selected rows, in row order, into a
// fresh relation whose tuples are carved from one arena allocation: a
// popcount pass sizes the arena, and a fill pass reads each row's projected
// cells. A missing projection column fails as Relation.Project does.
func materializeSelection(col *relation.Columnar, sel []uint64, projection []string) (*relation.Relation, error) {
	schema, err := col.Schema().Project(projection)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", col.Name(), err)
	}
	projIdx := make([]int, len(projection))
	for i, name := range projection {
		projIdx[i] = col.Schema().IndexOf(name)
	}

	count := 0
	for _, word := range sel {
		count += bits.OnesCount64(word)
	}
	arity := len(projIdx)
	arena := make([]relation.Value, count*arity)
	tuples := make([]relation.Tuple, count)
	k := 0
	for w, word := range sel {
		base := w << 6
		for word != 0 {
			ri := base + bits.TrailingZeros64(word)
			word &= word - 1
			row := arena[k*arity : (k+1)*arity : (k+1)*arity]
			for i, j := range projIdx {
				row[i] = col.Cell(ri, j)
			}
			tuples[k] = relation.Tuple(row)
			k++
		}
	}
	return &relation.Relation{Name: col.Name(), Schema: schema, Tuples: tuples}, nil
}

func hashWords(ws []uint64) uint64 {
	h := uint64(hashWordsOffset)
	for _, w := range ws {
		h = (h ^ w) * hashWordsPrime
	}
	return h
}

// FNV-1a constants, local so this file does not reach into relation's
// unexported kernel internals; collisions are equality-verified either way.
const (
	hashWordsOffset = 14695981039346656037
	hashWordsPrime  = 1099511628211
)

// BatchDeltaOnJoined computes every query's ResultDelta for one set of
// in-place joined-tuple modifications in a single pass over the modified
// rows: each unique term is evaluated once per modified row (old and new
// value) instead of once per query, and the per-query Lemma 5.1 case
// analysis then runs on cached term outcomes. It reads the old rows' cells
// from the join's columnar view and builds no dictionary — the modified-row
// count is small, so terms evaluate directly on the cells. Deltas are
// byte-identical, per query, to the scalar reference testref.DeltaOnJoined.
func BatchDeltaOnJoined(queries []*Query, joined *relation.Columnar, modified map[int]relation.Tuple) ([]ResultDelta, error) {
	mDeltaBatches.Inc()
	mDeltaQueries.Add(uint64(len(queries)))
	rows := make([]int, 0, len(modified))
	for r := range modified {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		if r < 0 || r >= joined.NumRows() {
			// Same failure the scalar path reports for each query; the batch
			// shares one message since every query sees the same rows.
			return nil, fmt.Errorf("algebra: batch delta: row %d out of range", r)
		}
	}

	bp := compileBatch(queries, joined.Schema())
	rwords := (len(rows) + 63) / 64
	oldBits := make([][]uint64, len(bp.terms))
	newBits := make([][]uint64, len(bp.terms))
	for ti := range bp.terms {
		ci := bp.cols[ti]
		if ci < 0 {
			continue // constant-false term, both sides
		}
		t := &bp.terms[ti]
		ob := make([]uint64, rwords)
		nb := make([]uint64, rwords)
		for k, r := range rows {
			if t.Matches(joined.Cell(r, ci)) {
				ob[k>>6] |= 1 << (k & 63)
			}
			if t.Matches(modified[r][ci]) {
				nb[k>>6] |= 1 << (k & 63)
			}
		}
		oldBits[ti] = ob
		newBits[ti] = nb
	}

	matchAt := func(prog [][]int, bits [][]uint64, k int) bool {
		if len(prog) == 0 {
			return true
		}
		w, m := k>>6, uint64(1)<<(k&63)
		for _, conj := range prog {
			ok := true
			for _, ti := range conj {
				if bits[ti] == nil || bits[ti][w]&m == 0 {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}

	deltas := make([]ResultDelta, len(queries))
	for qi, q := range queries {
		projIdx := make([]int, len(q.Projection))
		for i, name := range q.Projection {
			j := joined.Schema().IndexOf(name)
			if j < 0 {
				return nil, fmt.Errorf("algebra: delta %s: no column %q in join", q.Name, name)
			}
			projIdx[i] = j
		}
		prog := bp.progs[qi]
		var delta ResultDelta
		for k, r := range rows {
			newT := modified[r]
			oldIn := matchAt(prog, oldBits, k)
			newIn := matchAt(prog, newBits, k)
			switch {
			case oldIn && newIn:
				ox, nx := joined.Project(r, projIdx), newT.Project(projIdx)
				if !ox.Equal(nx) {
					delta.Removed = append(delta.Removed, ox)
					delta.Added = append(delta.Added, nx)
				}
			case oldIn && !newIn:
				delta.Removed = append(delta.Removed, joined.Project(r, projIdx))
			case !oldIn && newIn:
				delta.Added = append(delta.Added, newT.Project(projIdx))
			}
		}
		deltas[qi] = delta
	}
	return deltas, nil
}
