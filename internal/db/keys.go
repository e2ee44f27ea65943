package db

import (
	"fmt"

	"qfe/internal/relation"
)

// Keys indexes a database's primary and foreign keys so that a set of cell
// edits can be checked against them without copying the database or
// re-checking unedited rows (paper §6.3: every D′ shown must be valid).
//
// It holds, per primary key, the number of rows per key value; per foreign
// key, the number of parent rows per key value and of non-NULL child
// references per value; and the number of violations these counts imply for
// the unedited database. An edit set moves only the counts of the rows it
// touches, so Valid costs O(edits × constraints on the edited tables) and
// answers exactly what Validate would answer on the edited database, also
// when the database itself is invalid: an edit set is valid when it brings
// the violation count to zero.
//
// The index is built on the first Valid call, so, like the session that
// owns it, it is not safe for concurrent use. The database must not change
// while the index is in use.
type Keys struct {
	d *Database

	// violations counts the unedited database's key violations: per primary
	// key, the rows beyond the first with each key value; per foreign key,
	// the non-NULL references to a value no parent row holds. -1 marks a
	// constraint on a missing table or column, which no edit can repair.
	violations int
	// sides lists every (constraint, role) that reads a table's rows, by
	// table name (nil until built); counts[i] is the base count of side i by
	// key value (sides that count the same projections share one table).
	sides  map[string][]keySide
	counts []*keyCounts
	// keyCol marks, per table, the columns some side reads: an edit to any
	// other column cannot move a key.
	keyCol map[string][]bool
}

// keyRole is what a table's rows are to one constraint.
type keyRole uint8

const (
	rolePK     keyRole = iota // rows of a primary key's table
	roleParent                // rows a foreign key references
	roleChild                 // rows holding a foreign key's references
)

// keySide is one role a table plays for one constraint: the columns it
// reads, its side id (the index of its counts, and the key of its count
// changes in a Valid call), and for a foreign key the other side's id
// (parent for a child side, child for a parent side).
type keySide struct {
	role  keyRole
	cols  []int
	id    int
	other int
}

// NewKeys returns the key index of d. It does no work until the first
// Valid call, so a session that never shows a modified database never
// builds it.
func NewKeys(d *Database) *Keys { return &Keys{d: d} }

func (k *Keys) build() {
	k.sides = make(map[string][]keySide)
	k.keyCol = make(map[string][]bool)
	// A primary key and the foreign keys that reference it count the same
	// projections, so they share one table.
	built := make(map[string]*keyCounts)
	counts := func(t *relation.Relation, cols []int, skipNull bool) *keyCounts {
		sig := fmt.Sprint(t.Name, cols, skipNull)
		kc := built[sig]
		if kc == nil {
			kc = newKeyCounts(t, cols, skipNull)
			built[sig] = kc
		}
		return kc
	}
	// addSide registers a side under the next side id.
	addSide := func(t *relation.Relation, s keySide, kc *keyCounts) {
		k.counts = append(k.counts, kc)
		k.sides[t.Name] = append(k.sides[t.Name], s)
		mask := k.keyCol[t.Name]
		if mask == nil {
			mask = make([]bool, t.Arity())
			k.keyCol[t.Name] = mask
		}
		for _, c := range s.cols {
			mask[c] = true
		}
	}

	for _, pk := range k.d.PrimaryKeys {
		t := k.d.Table(pk.Table)
		if t == nil {
			k.violations = -1
			return
		}
		cols, err := columnIndexes(t, pk.Columns)
		if err != nil {
			k.violations = -1
			return
		}
		rows := counts(t, cols, false)
		for _, e := range rows.ents {
			k.violations += excess(int(e.n))
		}
		addSide(t, keySide{role: rolePK, cols: cols, id: len(k.counts)}, rows)
	}
	for _, fk := range k.d.ForeignKeys {
		child, parent := k.d.Table(fk.ChildTable), k.d.Table(fk.ParentTable)
		if child == nil || parent == nil || fk.checkColumns() != nil {
			k.violations = -1
			return
		}
		ci, err := columnIndexes(child, fk.ChildColumns)
		if err != nil {
			k.violations = -1
			return
		}
		pi, err := columnIndexes(parent, fk.ParentColumns)
		if err != nil {
			k.violations = -1
			return
		}
		parents, refs := counts(parent, pi, false), counts(child, ci, true)
		for _, e := range refs.ents {
			if parents.count(child.Tuples[e.row], ci) == 0 {
				k.violations += int(e.n)
			}
		}
		pid, cid := len(k.counts), len(k.counts)+1
		addSide(parent, keySide{role: roleParent, cols: pi, id: pid, other: cid}, parents)
		addSide(child, keySide{role: roleChild, cols: ci, id: cid, other: pid}, refs)
	}
}

// excess is a primary-key value's violation count: its rows beyond the
// first.
func excess(n int) int { return max(n-1, 0) }

func hasNull(t relation.Tuple, cols []int) bool {
	for _, c := range cols {
		if t[c].IsNull() {
			return true
		}
	}
	return false
}

// Valid reports whether applying edits to the database, in order, would
// succeed and leave every declared key satisfied — what ApplyEdits followed
// by Validate reports, without the copy. An edit naming a missing table,
// row or column makes the set invalid, as it makes ApplyEdits fail.
func (k *Keys) Valid(edits []CellEdit) bool {
	if k.sides == nil {
		k.build()
	}
	if k.violations < 0 {
		return false
	}
	v := k.violations
	var delta keyDelta
	for i, e := range edits {
		t, _, err := k.d.editTarget(e)
		if err != nil {
			return false
		}
		sides := k.sides[e.Table]
		if len(sides) == 0 || sameRow(edits[:i], e) {
			continue // no key reads the table, or the row was seen already
		}
		// The row's first edit: its post-edit tuple is the base row with
		// every edit to it applied in order. Edits outside key columns
		// cannot move a key and need no tuple.
		old, cur := t.Tuples[e.Row], relation.Tuple(nil)
		mask := k.keyCol[e.Table]
		for _, f := range edits[i:] {
			if f.Table != e.Table || f.Row != e.Row {
				continue
			}
			if fi := t.Schema.IndexOf(f.Column); fi >= 0 && mask[fi] {
				if cur == nil {
					cur = old.Clone()
				}
				cur[fi] = f.Value
			}
		}
		if cur == nil {
			continue
		}
		for _, s := range sides {
			if keyEqualOn(old, s.cols, cur, s.cols) {
				continue
			}
			v += k.move(&delta, s, old, -1)
			v += k.move(&delta, s, cur, +1)
		}
	}
	return v == 0
}

// sameRow reports whether an earlier edit targets e's row.
func sameRow(earlier []CellEdit, e CellEdit) bool {
	for _, f := range earlier {
		if f.Table == e.Table && f.Row == e.Row {
			return true
		}
	}
	return false
}

// move adds d to the count of row's key on side s and returns the change in
// the violation count.
func (k *Keys) move(delta *keyDelta, s keySide, row relation.Tuple, d int) int {
	if s.role == roleChild && hasNull(row, s.cols) {
		return 0 // NULL references are permitted, as in SQL
	}
	n := k.counts[s.id].count(row, s.cols) + delta.inc(s.id, row, s.cols, d)
	switch s.role {
	case rolePK:
		return excess(n) - excess(n-d)
	case roleParent:
		// The references to the key are violations exactly while no parent
		// row holds it.
		refs := k.counts[s.other].count(row, s.cols) + delta.get(s.other, row, s.cols)
		switch {
		case n == 0 && n-d > 0:
			return refs
		case n > 0 && n-d == 0:
			return -refs
		}
		return 0
	default: // roleChild
		if k.counts[s.other].count(row, s.cols)+delta.get(s.other, row, s.cols) == 0 {
			return d
		}
		return 0
	}
}

// keyEqualOn reports whether a's projection on ac is KeyEqual to b's on bc.
func keyEqualOn(a relation.Tuple, ac []int, b relation.Tuple, bc []int) bool {
	for i := range ac {
		if !a[ac[i]].KeyEqual(b[bc[i]]) {
			return false
		}
	}
	return true
}

// keyCounts counts a table's rows by their projection on cols, skipping rows
// whose projection holds a NULL when built with skipNull. It copies no key:
// an entry names the first row holding its key, and every lookup verifies
// with KeyEqual against that row, so counts are exact whatever the hash.
type keyCounts struct {
	t    *relation.Relation
	cols []int
	// first maps a key hash to the first entry of its chain.
	first map[uint64]int32
	ents  []keyCount
}

// keyCount is one key value: its first row, its row count and the next
// entry with the same hash (-1 ends the chain).
type keyCount struct{ row, n, next int32 }

func newKeyCounts(t *relation.Relation, cols []int, skipNull bool) *keyCounts {
	kc := &keyCounts{t: t, cols: cols, first: make(map[uint64]int32, t.Len())}
	for row, tup := range t.Tuples {
		if skipNull && hasNull(tup, cols) {
			continue
		}
		h := tup.HashProj(cols)
		if e := kc.find(h, tup, cols); e >= 0 {
			kc.ents[e].n++
			continue
		}
		next, ok := kc.first[h]
		if !ok {
			next = -1
		}
		kc.first[h] = int32(len(kc.ents))
		kc.ents = append(kc.ents, keyCount{row: int32(row), n: 1, next: next})
	}
	return kc
}

// count returns how many counted rows hold row's projection on cols.
func (kc *keyCounts) count(row relation.Tuple, cols []int) int {
	if e := kc.find(row.HashProj(cols), row, cols); e >= 0 {
		return int(kc.ents[e].n)
	}
	return 0
}

// find returns the entry of row's projection on cols, whose hash is h, or
// -1.
func (kc *keyCounts) find(h uint64, row relation.Tuple, cols []int) int {
	e, ok := kc.first[h]
	for ok && e >= 0 {
		ent := kc.ents[e]
		if keyEqualOn(kc.t.Tuples[ent.row], kc.cols, row, cols) {
			return int(e)
		}
		e = ent.next
	}
	return -1
}

// keyDelta is one Valid call's count changes, by side and key value. An
// edit set touches a handful of rows, so a flat list beats a map. Keys stay
// row projections: an entry names a row and the columns holding its key.
type keyDelta []keyDeltaEntry

type keyDeltaEntry struct {
	side int
	row  relation.Tuple
	cols []int
	n    int
}

// get returns the change recorded on side for row's key on cols.
func (kd keyDelta) get(side int, row relation.Tuple, cols []int) int {
	for _, e := range kd {
		if e.side == side && keyEqualOn(e.row, e.cols, row, cols) {
			return e.n
		}
	}
	return 0
}

// inc adds d to the change on side for row's key on cols and returns the
// new change.
func (kd *keyDelta) inc(side int, row relation.Tuple, cols []int, d int) int {
	for i := range *kd {
		if e := &(*kd)[i]; e.side == side && keyEqualOn(e.row, e.cols, row, cols) {
			e.n += d
			return e.n
		}
	}
	*kd = append(*kd, keyDeltaEntry{side: side, row: row, cols: cols, n: d})
	return d
}
