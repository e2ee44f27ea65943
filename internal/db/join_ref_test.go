package db

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"qfe/internal/relation"
)

// refJoined is the reference form of a join: its tuples copied out of the
// base tables, fold by fold, with row-major provenance (Prov[i][t] is the
// row of Tables[t] in tuple i).
type refJoined struct {
	Rel     *relation.Relation
	Tables  []string
	Prov    [][]int
	Cols    []ColRef
	KeyCols []string
}

// refJoin is the row-copying hash-join fold the code-based Join replaced:
// each fold indexes the incoming rows by their join-column hashes, verifies
// every hash match value by value with KeyEqual, and copies each merged
// tuple. Join must reproduce it exactly.
func refJoin(d *Database, tables []string) (*refJoined, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("db: join of zero tables")
	}
	for _, n := range tables {
		if d.Table(n) == nil {
			return nil, fmt.Errorf("db: join: no such table %q", n)
		}
	}
	first := d.Table(tables[0])
	j := &refJoined{Tables: []string{first.Name},
		Rel: relation.New(strings.Join(tables, "⋈"), first.Schema.Qualify(first.Name))}
	for ci, c := range first.Schema {
		j.Cols = append(j.Cols, ColRef{Table: first.Name, Column: c.Name, TableIdx: 0, ColIdx: ci})
	}
	for i, t := range first.Tuples {
		j.Rel.Tuples = append(j.Rel.Tuples, t.Clone())
		j.Prov = append(j.Prov, []int{i})
	}
	remaining := append([]string(nil), tables[1:]...)
	for len(remaining) > 0 {
		progressed := false
		for ri, name := range remaining {
			conds, err := joinConditions(d, j.Rel.Schema, j.Tables, name)
			if err != nil {
				return nil, err
			}
			if len(conds) == 0 {
				continue
			}
			in := d.Table(name)
			for _, c := range conds {
				j.KeyCols = append(j.KeyCols,
					j.Rel.Schema[c.joinedCol].Name, in.Name+"."+in.Schema[c.newCol].Name)
			}
			j.foldIn(in, conds)
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
	return j, nil
}

func (j *refJoined) foldIn(in *relation.Relation, conds []joinCondition) {
	newTableIdx := len(j.Tables)
	j.Tables = append(j.Tables, in.Name)
	newIdx := make([]int, len(conds))
	joinedIdx := make([]int, len(conds))
	for i, c := range conds {
		newIdx[i], joinedIdx[i] = c.newCol, c.joinedCol
	}
	index := make(map[uint64][]int, in.Len())
	for ri, t := range in.Tuples {
		h := t.HashProj(newIdx)
		index[h] = append(index[h], ri)
	}
	for ci, c := range in.Schema {
		j.Cols = append(j.Cols, ColRef{Table: in.Name, Column: c.Name, TableIdx: newTableIdx, ColIdx: ci})
	}
	var tuples []relation.Tuple
	var prov [][]int
	for ti, t := range j.Rel.Tuples {
	next:
		for _, ri := range index[t.HashProj(joinedIdx)] {
			it := in.Tuples[ri]
			for _, c := range conds {
				if !t[c.joinedCol].KeyEqual(it[c.newCol]) {
					continue next
				}
			}
			tuples = append(tuples, append(t.Clone(), it...))
			prov = append(prov, append(slices.Clone(j.Prov[ti]), ri))
		}
	}
	j.Rel = &relation.Relation{Name: j.Rel.Name, Schema: j.Rel.Schema.Concat(in.Schema.Qualify(in.Name)),
		Tuples: tuples}
	j.Prov = prov
}

// joinOrders lists every non-empty set of d's tables connected by its
// foreign keys, in d's table order and, for two tables or more, reversed,
// so either end of a foreign key seeds some fold.
func joinOrders(d *Database) [][]string {
	var out [][]string
	for _, tables := range connectedSubsets(d) {
		out = append(out, tables)
		if len(tables) > 1 {
			rev := slices.Clone(tables)
			slices.Reverse(rev)
			out = append(out, rev)
		}
	}
	return out
}

// connectedSubsets lists every non-empty set of d's tables connected by its
// foreign keys, each in d's table order.
func connectedSubsets(d *Database) [][]string {
	names := d.TableNames()
	adj := make([]int, len(names))
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	for _, fk := range d.ForeignKeys {
		a, aok := idx[fk.ChildTable]
		b, bok := idx[fk.ParentTable]
		if aok && bok {
			adj[a] |= 1 << b
			adj[b] |= 1 << a
		}
	}
	var out [][]string
	for mask := 1; mask < 1<<len(names); mask++ {
		seen := mask & -mask
		for grown := 0; grown != seen; {
			grown = seen
			for i := range names {
				if seen&(1<<i) != 0 {
					seen |= adj[i] & mask
				}
			}
		}
		if seen != mask {
			continue
		}
		var subset []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				subset = append(subset, n)
			}
		}
		out = append(out, subset)
	}
	return out
}

// sameCell reports whether two cells are the same value: the same kind and
// payload, NaN included — stricter than KeyEqual, which aliases Int(3) and
// Float(3.0).
func sameCell(a, b relation.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameCells(a, b []relation.Value) bool {
	return slices.EqualFunc(a, b, sameCell)
}

// foldMismatch joins tables of d both ways and describes the first
// difference from the reference fold, or returns "". It compares the
// errors, the schema, Tables, Cols and KeyCols, every tuple in order (whole
// rows and single cells), the provenance, TuplesFromBase of every base row,
// and, per column, the codes, the dictionary and the sorted codes of
// relation.NewColumnar over the reference tuples.
func foldMismatch(d *Database, tables []string) string {
	ref, refErr := refJoin(d, tables)
	j, err := Join(d, tables)
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			return fmt.Sprintf("join error %v, reference %v", err, refErr)
		}
		return ""
	}
	switch {
	case !slices.Equal(j.Tables, ref.Tables):
		return fmt.Sprintf("tables %v, reference %v", j.Tables, ref.Tables)
	case !slices.Equal(j.Cols, ref.Cols):
		return fmt.Sprintf("column sources %v, reference %v", j.Cols, ref.Cols)
	case !slices.Equal(j.KeyCols, ref.KeyCols):
		return fmt.Sprintf("key columns %v, reference %v", j.KeyCols, ref.KeyCols)
	case !slices.Equal(j.Schema(), ref.Rel.Schema):
		return fmt.Sprintf("schema %v, reference %v", j.Schema(), ref.Rel.Schema)
	case j.Len() != ref.Rel.Len():
		return fmt.Sprintf("%d tuples, reference %d", j.Len(), ref.Rel.Len())
	}
	rel, col := j.Relation(), j.Columnar()
	if rel.Name != ref.Rel.Name || col.Name() != ref.Rel.Name {
		return fmt.Sprintf("names %q and %q, reference %q", rel.Name, col.Name(), ref.Rel.Name)
	}
	for i, want := range ref.Rel.Tuples {
		if !sameCells(rel.Tuples[i], want) || !sameCells(j.Row(i), want) {
			return fmt.Sprintf("tuple %d is %v, reference %v", i, rel.Tuples[i], want)
		}
		for ci := range want {
			if !sameCell(col.Cell(i, ci), want[ci]) {
				return fmt.Sprintf("tuple %d cell %d is %v, reference %v", i, ci, col.Cell(i, ci), want[ci])
			}
		}
		for t := range ref.Tables {
			if j.BaseRow(i, t) != ref.Prov[i][t] {
				return fmt.Sprintf("tuple %d comes from row %d of %s, reference %d",
					i, j.BaseRow(i, t), ref.Tables[t], ref.Prov[i][t])
			}
		}
	}
	for t, table := range ref.Tables {
		from := make([][]int, d.Table(table).Len())
		for i, p := range ref.Prov {
			from[p[t]] = append(from[p[t]], i)
		}
		for b := -1; b <= len(from); b++ {
			var want []int
			if b >= 0 && b < len(from) {
				want = from[b]
			}
			if got := j.TuplesFromBase(table, b); !slices.Equal(got, want) || j.FanOut(table, b) != len(want) {
				return fmt.Sprintf("%s row %d is in tuples %v, reference %v", table, b, got, want)
			}
		}
	}
	if got := j.TuplesFromBase("no such table", 0); got != nil {
		return fmt.Sprintf("a table outside the join is in tuples %v", got)
	}
	refCol := relation.NewColumnar(ref.Rel)
	for ci, c := range ref.Rel.Schema {
		got, want := col.Col(ci), refCol.Col(ci)
		switch {
		case !slices.Equal(got.Codes, want.Codes):
			return fmt.Sprintf("column %s codes differ from the reference", c.Name)
		case !sameCells(got.Dict, want.Dict):
			return fmt.Sprintf("column %s dictionary %v, reference %v", c.Name, got.Dict, want.Dict)
		case !slices.Equal(col.SortedCodes(ci), refCol.SortedCodes(ci)):
			return fmt.Sprintf("column %s sorted codes %v, reference %v",
				c.Name, col.SortedCodes(ci), refCol.SortedCodes(ci))
		}
	}
	return ""
}

// FuzzJoinMatchesFold checks Join against the reference fold on every
// connected table subset of a keysFixtures database whose cells the rest of
// the input rewrites (EditsFromBytes, applied with ApplyEdits): join keys
// become NULL, NaN, Int/Float aliases, dangling or duplicated. The fixtures
// hold a two-column foreign key, a self-reference and a constraint on a
// missing table.
func FuzzJoinMatchesFold(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 0, 0, 0, 3, 1, 0, 2, 0, 5})
	f.Add([]byte{1, 1, 0, 3, 1, 5, 1, 0, 2, 1, 7, 0, 0, 1, 0, 4})
	f.Add([]byte{2, 1, 0, 4, 0, 0, 0, 0, 1, 0, 24})
	f.Add([]byte{3, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fx := keysFixtures(t)
		d, err := fx[int(data[0])%len(fx)].ApplyEdits(validEdits(fx[int(data[0])%len(fx)], data[1:]))
		if err != nil {
			t.Fatal(err)
		}
		for _, tables := range joinOrders(d) {
			if msg := foldMismatch(d, tables); msg != "" {
				t.Fatalf("join of %v: %s", tables, msg)
			}
		}
	})
}

// validEdits decodes data with EditsFromBytes and keeps the edits that
// ApplyEdits accepts.
func validEdits(d *Database, data []byte) []CellEdit {
	var out []CellEdit
	for _, e := range EditsFromBytes(d, data) {
		if d.CheckEdits([]CellEdit{e}) == nil {
			out = append(out, e)
		}
	}
	return out
}
