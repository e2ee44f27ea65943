package db

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qfe/internal/relation"
)

// ColRef locates a column of a joined relation in its source base table.
type ColRef struct {
	Table    string // base table name
	Column   string // unqualified column name
	TableIdx int    // index into Joined.Tables
	ColIdx   int    // column index inside the base table
}

// Joined is the foreign-key join of a set of base tables, together with the
// provenance of every joined tuple. Provenance is the paper's "join index"
// (§5.4.1): it lets the database generator find every joined tuple affected
// by a single base-tuple modification (the "side effects").
type Joined struct {
	// Rel holds the joined tuples under a qualified schema ("Table.col").
	Rel *relation.Relation
	// Tables lists the joined base tables in join order.
	Tables []string
	// Prov[i][j] is the row index in base table Tables[j] that contributed
	// to joined tuple i.
	Prov [][]int
	// Cols maps each joined column (by position) to its source.
	Cols []ColRef
	// KeyCols lists the qualified column names (sorted, deduplicated) that
	// participate in a join condition of this join — the FK child and parent
	// columns of every edge between the joined tables. These columns are
	// structural: changing one of their values rewires which base tuples
	// join, so the single-tuple modification model (§5, in-place joined-tuple
	// replacement) does not apply to them. The database generator freezes
	// them in its tuple-class space.
	KeyCols []string

	// fromBase[table][row] lists joined-tuple indexes that include that base
	// row; rows joining nothing are absent.
	fromBase map[string]map[int][]int

	colOnce  sync.Once
	columnar *relation.Columnar

	// curVals / curProv track the arena currently backing Rel's tuples and
	// provenance while the join is being folded together; each fold recycles
	// its predecessor's arenas through the fold pools. The final fold's
	// arenas are owned by the finished Joined and never recycled.
	curVals  []relation.Value
	curProv  []int
	curDepth int
}

// Columnar returns the dictionary-encoded columnar view of the joined
// relation, computed lazily once — a Joined is immutable after Join returns
// and all winnowing rounds of a session group share it, so one columnar
// build serves every batch evaluation of the group.
func (j *Joined) Columnar() *relation.Columnar {
	j.colOnce.Do(func() { j.columnar = relation.NewColumnar(j.Rel) })
	return j.columnar
}

// Fold-arena pools. Every fold of a join allocates one value arena, one
// provenance arena and match bookkeeping; all but the final fold's arenas
// die as soon as the next fold has copied them forward. Repeated joins of
// the same tables — the β/δ sweeps, qbo's join-schema enumeration, every
// simulator session — therefore cycle through identically-sized buffers,
// which the pools hand back instead of reallocating. Pools are keyed by
// fold depth (capped) so a join's k-th fold tends to find a buffer of
// exactly the right size.
const numFoldPools = 8

type foldBuffers struct {
	vals []relation.Value
	ints []int
}

var foldPools [numFoldPools]sync.Pool

func foldPool(depth int) *sync.Pool {
	if depth >= numFoldPools {
		depth = numFoldPools - 1
	}
	return &foldPools[depth]
}

// getFoldBuffers returns pooled buffers with at least the requested
// capacities (resliced to exactly the requested lengths), or fresh ones.
func getFoldBuffers(depth, nVals, nInts int) *foldBuffers {
	if v := foldPool(depth).Get(); v != nil {
		b := v.(*foldBuffers)
		if cap(b.vals) >= nVals && cap(b.ints) >= nInts {
			b.vals = b.vals[:nVals]
			b.ints = b.ints[:nInts]
			return b
		}
	}
	return &foldBuffers{vals: make([]relation.Value, nVals), ints: make([]int, nInts)}
}

// recycleCurrent returns the arenas backing the pre-fold Rel to their pool.
// Only callable once the successor fold has copied every value forward.
func (j *Joined) recycleCurrent() {
	if j.curVals == nil && j.curProv == nil {
		return
	}
	foldPool(j.curDepth).Put(&foldBuffers{vals: j.curVals, ints: j.curProv})
	j.curVals, j.curProv = nil, nil
}

// tableIndex returns the position of a table in the join order, or -1.
func (j *Joined) tableIndex(name string) int {
	for i, t := range j.Tables {
		if t == name {
			return i
		}
	}
	return -1
}

// ColRefOf resolves a qualified column name ("Table.col") of the joined
// schema to its source location.
func (j *Joined) ColRefOf(qualified string) (ColRef, error) {
	i := j.Rel.Schema.IndexOf(qualified)
	if i < 0 {
		return ColRef{}, fmt.Errorf("db: joined relation has no column %q", qualified)
	}
	return j.Cols[i], nil
}

// TuplesFromBase returns the indexes of joined tuples that contain the given
// base row. The returned slice is shared; do not mutate.
func (j *Joined) TuplesFromBase(table string, row int) []int {
	m := j.fromBase[table]
	if m == nil {
		return nil
	}
	return m[row]
}

// FanOut returns the number of joined tuples containing the base row; a
// fan-out of 1 means a modification has no side effects beyond its own
// joined tuple (§5.4.1: such modifications are preferred).
func (j *Joined) FanOut(table string, row int) int {
	return len(j.TuplesFromBase(table, row))
}

// Join computes the foreign-key join of the named tables (in any connected
// order). All FK edges between two joined tables contribute equality
// conditions. Dangling tuples are dropped (inner join), matching the paper's
// experimental setup (e.g. the 424-row table joining to 417 tuples).
func Join(d *Database, tables []string) (*Joined, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("db: join of zero tables")
	}
	for _, n := range tables {
		if d.Table(n) == nil {
			return nil, fmt.Errorf("db: join: no such table %q", n)
		}
	}

	j := &Joined{fromBase: make(map[string]map[int][]int)}

	// Seed with the first table.
	first := d.Table(tables[0])
	j.Tables = []string{first.Name}
	j.Rel = relation.New(joinName(tables), first.Schema.Qualify(first.Name))
	for ci, c := range first.Schema {
		j.Cols = append(j.Cols, ColRef{Table: first.Name, Column: c.Name, TableIdx: 0, ColIdx: ci})
	}
	j.Rel.Tuples = make([]relation.Tuple, first.Len())
	j.Prov = make([][]int, first.Len())
	seedArity := first.Arity()
	seedBufs := getFoldBuffers(0, first.Len()*seedArity, first.Len())
	seedArena, provArena := seedBufs.vals, seedBufs.ints
	j.curVals, j.curProv, j.curDepth = seedArena, provArena, 0
	for i, t := range first.Tuples {
		row := seedArena[i*seedArity : (i+1)*seedArity : (i+1)*seedArity]
		copy(row, t)
		j.Rel.Tuples[i] = row
		provArena[i] = i
		j.Prov[i] = provArena[i : i+1 : i+1]
	}

	remaining := append([]string(nil), tables[1:]...)
	for len(remaining) > 0 {
		progressed := false
		for ri, name := range remaining {
			conds := joinConditions(d, j, name)
			if len(conds) == 0 {
				continue
			}
			in := d.Table(name)
			for _, c := range conds {
				j.KeyCols = append(j.KeyCols,
					j.Rel.Schema[c.joinedCol].Name,
					in.Name+"."+in.Schema[c.newCol].Name)
			}
			if err := j.foldIn(in, conds); err != nil {
				return nil, err
			}
			remaining = append(remaining[:ri], remaining[ri+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return nil, fmt.Errorf("db: join: tables %v not connected to %v by any foreign key",
				remaining, j.Tables)
		}
	}
	sort.Strings(j.KeyCols)
	j.KeyCols = dedupeSorted(j.KeyCols)
	// The final fold's arenas are owned by the finished join; drop the
	// tracking references so they are never recycled.
	j.curVals, j.curProv = nil, nil
	j.buildReverseIndex()
	return j, nil
}

// dedupeSorted removes adjacent duplicates in place.
func dedupeSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// JoinAll joins every table of the database (the §5 assumption that all
// candidate queries share the full join schema).
func JoinAll(d *Database) (*Joined, error) { return Join(d, d.TableNames()) }

// joinCondition equates a column of the current joined relation with a
// column of the incoming table.
type joinCondition struct {
	joinedCol int // index into j.Rel.Schema
	newCol    int // index into the incoming table's schema
}

// joinConditions collects the equality conditions implied by every FK edge
// between the already-joined tables and the incoming table.
func joinConditions(d *Database, j *Joined, incoming string) []joinCondition {
	var conds []joinCondition
	add := func(joinedTable string, joinedCols []string, newCols []string, newTable *relation.Relation) {
		for i := range joinedCols {
			qc := joinedTable + "." + joinedCols[i]
			ji := j.Rel.Schema.IndexOf(qc)
			ni := newTable.Schema.IndexOf(newCols[i])
			if ji >= 0 && ni >= 0 {
				conds = append(conds, joinCondition{joinedCol: ji, newCol: ni})
			}
		}
	}
	in := d.Table(incoming)
	for _, fk := range d.ForeignKeys {
		switch {
		case fk.ChildTable == incoming && j.tableIndex(fk.ParentTable) >= 0:
			add(fk.ParentTable, fk.ParentColumns, fk.ChildColumns, in)
		case fk.ParentTable == incoming && j.tableIndex(fk.ChildTable) >= 0:
			add(fk.ChildTable, fk.ChildColumns, fk.ParentColumns, in)
		}
	}
	return conds
}

// foldIn hash-joins the incoming table into j under the given conditions.
// The build side is keyed by per-row join-column hashes (relation's hash
// kernel; no key strings) and every hash match is verified value-by-value
// with KeyEqual, so correctness never depends on hash uniqueness. The
// merged tuples and provenance rows are carved out of one backing array
// each — one allocation per fold, not one per output row.
func (j *Joined) foldIn(in *relation.Relation, conds []joinCondition) error {
	newTableIdx := len(j.Tables)
	j.Tables = append(j.Tables, in.Name)

	newIdx := make([]int, len(conds))
	joinedIdx := make([]int, len(conds))
	for i, c := range conds {
		newIdx[i] = c.newCol
		joinedIdx[i] = c.joinedCol
	}
	condsEqual := func(jt, it relation.Tuple) bool {
		for _, c := range conds {
			if !jt[c.joinedCol].KeyEqual(it[c.newCol]) {
				return false
			}
		}
		return true
	}

	// Index incoming rows by their join-column hash.
	index := make(map[uint64][]int, in.Len())
	for ri, t := range in.Tuples {
		h := t.HashProj(newIdx)
		index[h] = append(index[h], ri)
	}

	newSchema := j.Rel.Schema.Concat(in.Schema.Qualify(in.Name))
	for ci, c := range in.Schema {
		j.Cols = append(j.Cols, ColRef{Table: in.Name, Column: c.Name, TableIdx: newTableIdx, ColIdx: ci})
	}

	// Pass 1: probe with verification, recording the matching incoming rows
	// per joined tuple (flattened, so the pass allocates O(output), not
	// O(output rows) separate slices). The bookkeeping slices come from the
	// scratch pool and go back at the end of the fold.
	scr := getFoldScratch(len(j.Rel.Tuples))
	matches, starts := scr.matches[:0], scr.starts
	for ti, t := range j.Rel.Tuples {
		starts[ti] = len(matches)
		for _, ri := range index[t.HashProj(joinedIdx)] {
			if condsEqual(t, in.Tuples[ri]) {
				matches = append(matches, ri)
			}
		}
	}
	starts[len(j.Rel.Tuples)] = len(matches)

	// Pass 2: materialise output rows from (pooled) arenas.
	n := len(matches)
	arity := len(j.Rel.Schema) + in.Arity()
	provLen := newTableIdx + 1
	bufs := getFoldBuffers(newTableIdx, n*arity, n*provLen)
	valueArena, provArena := bufs.vals, bufs.ints
	outTuples := make([]relation.Tuple, n)
	outProv := make([][]int, n)
	oi := 0
	for ti, t := range j.Rel.Tuples {
		for _, ri := range matches[starts[ti]:starts[ti+1]] {
			merged := valueArena[oi*arity : (oi+1)*arity : (oi+1)*arity]
			copy(merged, t)
			copy(merged[len(t):], in.Tuples[ri])
			prov := provArena[oi*provLen : (oi+1)*provLen : (oi+1)*provLen]
			copy(prov, j.Prov[ti])
			prov[provLen-1] = ri
			outTuples[oi] = merged
			outProv[oi] = prov
			oi++
		}
	}
	j.Rel = &relation.Relation{Name: j.Rel.Name, Schema: newSchema, Tuples: outTuples}
	j.Prov = outProv
	// The pre-fold arenas were fully copied forward above: recycle them and
	// take ownership of this fold's arenas.
	j.recycleCurrent()
	j.curVals, j.curProv, j.curDepth = valueArena, provArena, newTableIdx
	scr.matches = matches
	putFoldScratch(scr)
	return nil
}

// foldScratch holds the per-fold match bookkeeping (pass 1), pooled across
// joins.
type foldScratch struct {
	matches []int
	starts  []int
}

var foldScratchPool sync.Pool

func getFoldScratch(tuples int) *foldScratch {
	if v := foldScratchPool.Get(); v != nil {
		s := v.(*foldScratch)
		if cap(s.starts) >= tuples+1 {
			s.starts = s.starts[:tuples+1]
			return s
		}
	}
	return &foldScratch{matches: make([]int, 0, tuples), starts: make([]int, tuples+1)}
}

func putFoldScratch(s *foldScratch) { foldScratchPool.Put(s) }

func (j *Joined) buildReverseIndex() {
	j.fromBase = make(map[string]map[int][]int, len(j.Tables))
	for _, t := range j.Tables {
		j.fromBase[t] = make(map[int][]int)
	}
	for ti, prov := range j.Prov {
		for tbl, row := range prov {
			name := j.Tables[tbl]
			j.fromBase[name][row] = append(j.fromBase[name][row], ti)
		}
	}
}

// Rebuilt recomputes the join on a (possibly edited) database with the same
// schema, preserving the join order. Used by tests to cross-check the
// incremental evaluator against a from-scratch join.
func (j *Joined) Rebuilt(d *Database) (*Joined, error) { return Join(d, j.Tables) }

func joinName(tables []string) string { return strings.Join(tables, "⋈") }
