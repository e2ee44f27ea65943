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

// Joined is the foreign-key join of a set of base tables, held as its
// provenance alone: per joined table, the vector of base rows that produce
// each joined tuple. Provenance is the paper's "join index" (§5.4.1): it
// lets the database generator find every joined tuple affected by a single
// base-tuple modification (the "side effects"). Cells, dictionary codes and
// whole rows are read from the base tables through the row vectors, so the
// database must not change while the join is in use. A Joined is immutable
// once Join returns and safe for concurrent readers.
type Joined struct {
	// Tables lists the joined base tables in join order.
	Tables []string
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

	name   string
	schema relation.Schema
	base   []*relation.Relation // the base table of each entry of Tables
	// rows[t][i] is the row of base table Tables[t] in joined tuple i.
	rows [][]int
	col  *relation.Columnar

	// rev[t] groups the joined tuples by their row of base table Tables[t].
	revOnce sync.Once
	rev     []relation.Groups
}

// Len returns the number of joined tuples.
func (j *Joined) Len() int { return j.col.NumRows() }

// Schema returns the joined schema: every table's columns, qualified as
// "Table.col", in join order.
func (j *Joined) Schema() relation.Schema { return j.schema }

// Columnar returns the dictionary-encoded columnar view of the join. Each
// column is its base column's codes gathered through the row vector, built
// on first use of the column, and all winnowing rounds of a session group
// share it.
func (j *Joined) Columnar() *relation.Columnar { return j.col }

// BaseRow returns the row of base table Tables[table] that contributed to
// joined tuple row.
func (j *Joined) BaseRow(row, table int) int { return j.rows[table][row] }

// Row returns a fresh copy of joined tuple row.
func (j *Joined) Row(row int) relation.Tuple {
	return j.fill(make(relation.Tuple, len(j.schema)), row)
}

// fill copies joined tuple row's cells, table by table, into dst.
func (j *Joined) fill(dst relation.Tuple, row int) relation.Tuple {
	off := 0
	for t, b := range j.base {
		off += copy(dst[off:], b.Tuples[j.rows[t][row]])
	}
	return dst
}

// Relation materialises the joined tuples under the joined schema, for the
// readers that need whole rows. Each call builds a fresh relation.
func (j *Joined) Relation() *relation.Relation {
	n, arity := j.Len(), len(j.schema)
	arena := make([]relation.Value, n*arity)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = j.fill(arena[i*arity:(i+1)*arity:(i+1)*arity], i)
	}
	return &relation.Relation{Name: j.name, Schema: j.schema, Tuples: tuples}
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

// TuplesFromBase returns the indexes of joined tuples that contain the given
// base row, ascending. The returned slice is shared; do not mutate.
func (j *Joined) TuplesFromBase(table string, row int) []int {
	t := j.tableIndex(table)
	if t < 0 {
		return nil
	}
	j.revOnce.Do(j.buildReverseIndex)
	r := j.rev[t]
	if row < 0 || row >= len(r.Start)-1 {
		return nil
	}
	return r.Of(row)
}

// FanOut returns the number of joined tuples containing the base row; a
// fan-out of 1 means a modification has no side effects beyond its own
// joined tuple (§5.4.1: such modifications are preferred).
func (j *Joined) FanOut(table string, row int) int {
	return len(j.TuplesFromBase(table, row))
}

func (j *Joined) buildReverseIndex() {
	j.rev = make([]relation.Groups, len(j.Tables))
	for t, rows := range j.rows {
		j.rev[t] = relation.GroupBy(rows, j.base[t].Len())
	}
}

// Codes is an encoding scope over one database: the dictionary-encoded
// columnar view of each base table, made on first use (and each column
// encoded on first use), shared by every join made through the scope. One
// user of the joins — a qbo.Generate call, a core session — makes one
// scope, so each base column is hashed at most once for all its joins. The
// scope belongs to its user, not to the database: a database outlives its
// users, and encodings kept with it would stay resident as long. The
// database must not change while the scope is in use. Safe for concurrent
// use.
type Codes struct {
	d      *Database
	mu     sync.Mutex
	tables map[string]*relation.Columnar
}

// NewCodes returns an empty encoding scope over d.
func NewCodes(d *Database) *Codes {
	return &Codes{d: d, tables: map[string]*relation.Columnar{}}
}

// table returns the columnar view of a base table of the scope's database.
func (c *Codes) table(r *relation.Relation) *relation.Columnar {
	c.mu.Lock()
	defer c.mu.Unlock()
	col := c.tables[r.Name]
	if col == nil {
		col = relation.NewColumnar(r)
		c.tables[r.Name] = col
	}
	return col
}

// Join computes the foreign-key join of the named tables (in any connected
// order) in an encoding scope of its own. All FK edges between two joined
// tables contribute equality conditions. Dangling tuples are dropped (inner
// join), matching the paper's experimental setup (e.g. the 424-row table
// joining to 417 tuples).
func Join(d *Database, tables []string) (*Joined, error) { return NewCodes(d).Join(tables) }

// JoinAll joins every table of the database (the §5 assumption that all
// candidate queries share the full join schema).
func JoinAll(d *Database) (*Joined, error) { return Join(d, d.TableNames()) }

// Join computes the foreign-key join of the named tables over the scope's
// encodings; see the package-level Join. The join order is the first table,
// then repeatedly the first remaining table connected to those joined. Its
// tuples are in fold order: every tuple of the previous fold in order, each
// followed by its matching rows of the incoming table in ascending order.
func (c *Codes) Join(tables []string) (*Joined, error) {
	d := c.d
	if len(tables) == 0 {
		return nil, fmt.Errorf("db: join of zero tables")
	}
	for _, n := range tables {
		if d.Table(n) == nil {
			return nil, fmt.Errorf("db: join: no such table %q", n)
		}
	}

	first := d.Table(tables[0])
	j := &Joined{
		Tables: []string{first.Name},
		name:   strings.Join(tables, "⋈"),
		schema: first.Schema.Qualify(first.Name),
		base:   []*relation.Relation{first},
	}
	for ci, col := range first.Schema {
		j.Cols = append(j.Cols, ColRef{Table: first.Name, Column: col.Name, TableIdx: 0, ColIdx: ci})
	}
	seed := make([]int, first.Len())
	for i := range seed {
		seed[i] = i
	}
	j.rows = [][]int{seed}

	remaining := append([]string(nil), tables[1:]...)
	for len(remaining) > 0 {
		progressed := false
		for ri, name := range remaining {
			conds, err := joinConditions(d, j.schema, j.Tables, name)
			if err != nil {
				return nil, err
			}
			if len(conds) == 0 {
				continue
			}
			in := d.Table(name)
			for _, cond := range conds {
				j.KeyCols = append(j.KeyCols,
					j.schema[cond.joinedCol].Name,
					in.Name+"."+in.Schema[cond.newCol].Name)
			}
			j.foldIn(c, in, conds)
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

	from := make([]relation.Gather, len(j.Cols))
	for ci, ref := range j.Cols {
		from[ci] = relation.Gather{Base: c.table(j.base[ref.TableIdx]), Col: ref.ColIdx, Rows: j.rows[ref.TableIdx]}
		if len(j.Tables) == 1 {
			from[ci].Rows = nil // the seed's identity vector
		}
	}
	j.col = relation.NewGathered(j.name, j.schema, len(j.rows[0]), from)
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

// joinCondition equates a column of the current joined schema with a column
// of the incoming table.
type joinCondition struct {
	joinedCol int // index into the joined schema
	newCol    int // index into the incoming table's schema
}

// joinConditions collects the equality conditions implied by every FK edge
// between the already-joined tables (with the given joined schema) and the
// incoming table. An edge whose column lists cannot be paired is an error.
func joinConditions(d *Database, schema relation.Schema, joined []string, incoming string) ([]joinCondition, error) {
	var conds []joinCondition
	add := func(joinedTable string, joinedCols []string, newCols []string, newTable *relation.Relation) {
		for i := range joinedCols {
			qc := joinedTable + "." + joinedCols[i]
			ji := schema.IndexOf(qc)
			ni := newTable.Schema.IndexOf(newCols[i])
			if ji >= 0 && ni >= 0 {
				conds = append(conds, joinCondition{joinedCol: ji, newCol: ni})
			}
		}
	}
	isJoined := func(name string) bool {
		for _, t := range joined {
			if t == name {
				return true
			}
		}
		return false
	}
	in := d.Table(incoming)
	for _, fk := range d.ForeignKeys {
		child := fk.ChildTable == incoming && isJoined(fk.ParentTable)
		if !child && !(fk.ParentTable == incoming && isJoined(fk.ChildTable)) {
			continue
		}
		if err := fk.checkColumns(); err != nil {
			return nil, err
		}
		if child {
			add(fk.ParentTable, fk.ParentColumns, fk.ChildColumns, in)
		} else {
			add(fk.ChildTable, fk.ChildColumns, fk.ParentColumns, in)
		}
	}
	return conds, nil
}

// none marks a code or key group that does not exist.
const none = ^uint32(0)

// foldIn joins the incoming table into j under the given conditions, on
// dictionary codes. Each condition's joined-side base codes are mapped once
// to the incoming column's codes, through a hash lookup verified with
// KeyEqual; then the incoming rows are grouped by their tuple of key codes,
// and every joined tuple probes its group with integer work alone. Two
// values match exactly when they are KeyEqual — NULL = NULL, NaN = NaN,
// Int(3) = Float(3.0) — whatever the hashes do.
func (j *Joined) foldIn(c *Codes, in *relation.Relation, conds []joinCondition) {
	incoming := c.table(in)
	n := len(j.rows[0])

	// group[i] is joined tuple i's key group among the incoming rows, or
	// none; inGroup is the incoming rows' groups, numGroups their count.
	group := make([]uint32, n)
	var inGroup []uint32
	numGroups := 0
	for k, cond := range conds {
		ref := j.Cols[cond.joinedCol]
		side := c.table(j.base[ref.TableIdx]).Col(ref.ColIdx)
		sideRows := j.rows[ref.TableIdx]
		inCol := incoming.Col(cond.newCol)
		toIn := mapCodes(side.Dict, relation.NewDictIndex(inCol.Dict))
		if k == 0 {
			inGroup = inCol.Codes
			numGroups = len(inCol.Dict)
			for i, b := range sideRows {
				group[i] = toIn[side.Codes[b]]
			}
			continue
		}
		// Later conditions refine the groups: a group is a (previous group,
		// code) pair, numbered in incoming row order.
		pairs := make(map[uint64]uint32)
		refined := make([]uint32, len(inGroup))
		for ri, g := range inGroup {
			key := uint64(g)<<32 | uint64(inCol.Codes[ri])
			id, ok := pairs[key]
			if !ok {
				id = uint32(len(pairs))
				pairs[key] = id
			}
			refined[ri] = id
		}
		inGroup, numGroups = refined, len(pairs)
		for i, b := range sideRows {
			if group[i] == none {
				continue
			}
			code := toIn[side.Codes[b]]
			id, ok := pairs[uint64(group[i])<<32|uint64(code)]
			if code == none || !ok {
				id = none
			}
			group[i] = id
		}
	}
	members := relation.GroupBy(inGroup, numGroups)

	total := 0
	for _, g := range group {
		if g != none {
			total += len(members.Of(int(g)))
		}
	}
	rows := make([][]int, len(j.rows)+1)
	for t := range rows {
		rows[t] = make([]int, 0, total)
	}
	newT := len(j.rows)
	for i, g := range group {
		if g == none {
			continue
		}
		for _, ri := range members.Of(int(g)) {
			for t, prev := range j.rows {
				rows[t] = append(rows[t], prev[i])
			}
			rows[newT] = append(rows[newT], ri)
		}
	}

	j.rows = rows
	j.base = append(j.base, in)
	j.Tables = append(j.Tables, in.Name)
	j.schema = j.schema.Concat(in.Schema.Qualify(in.Name))
	for ci, col := range in.Schema {
		j.Cols = append(j.Cols, ColRef{Table: in.Name, Column: col.Name, TableIdx: newT, ColIdx: ci})
	}
}

// mapCodes maps each value of dictionary from to the code of its KeyEqual
// value in the dictionary to indexes, or none.
func mapCodes(from []relation.Value, to *relation.DictIndex) []uint32 {
	out := make([]uint32, len(from))
	for b, v := range from {
		code, ok := to.Lookup(v)
		if !ok {
			code = none
		}
		out[b] = code
	}
	return out
}
