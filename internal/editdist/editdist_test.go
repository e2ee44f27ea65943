package editdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qfe/internal/relation"
)

func rel(vals ...[]int) *relation.Relation {
	arity := 0
	if len(vals) > 0 {
		arity = len(vals[0])
	}
	schema := make(relation.Schema, arity)
	for i := range schema {
		schema[i] = relation.Column{Name: string(rune('a' + i)), Type: relation.KindInt}
	}
	r := relation.New("T", schema)
	for _, row := range vals {
		t := make(relation.Tuple, arity)
		for i, v := range row {
			t[i] = relation.Int(int64(v))
		}
		r.Append(t)
	}
	return r
}

func TestMinEditIdentity(t *testing.T) {
	a := rel([]int{1, 2}, []int{3, 4})
	if d := MinEdit(a, relation.New(a.Name, a.Schema).Append(a.Tuples...)); d != 0 {
		t.Errorf("identical relations: %d, want 0", d)
	}
}

func TestMinEditSingleModification(t *testing.T) {
	a := rel([]int{1, 2}, []int{3, 4})
	b := rel([]int{1, 2}, []int{3, 5})
	if d := MinEdit(a, b); d != 1 {
		t.Errorf("single cell change: %d, want 1", d)
	}
}

func TestMinEditInsertDeleteCostArity(t *testing.T) {
	a := rel([]int{1, 2, 3})
	b := rel([]int{1, 2, 3}, []int{4, 5, 6})
	if d := MinEdit(a, b); d != 3 {
		t.Errorf("insert: %d, want arity 3", d)
	}
	if d := MinEdit(b, a); d != 3 {
		t.Errorf("delete: %d, want arity 3", d)
	}
	empty := rel()
	empty.Schema = a.Schema
	if d := MinEdit(a, empty); d != 3 {
		t.Errorf("delete all: %d, want 3", d)
	}
}

func TestMinEditPrefersModifyOverDeleteInsert(t *testing.T) {
	// One attribute differs: modify (1) beats delete+insert (4).
	a := rel([]int{1, 2})
	b := rel([]int{1, 9})
	if d := MinEdit(a, b); d != 1 {
		t.Errorf("got %d, want 1", d)
	}
	// All attributes differ: modify cost = arity = delete cost alone; still 2.
	c := rel([]int{7, 8})
	if d := MinEdit(a, c); d != 2 {
		t.Errorf("got %d, want 2", d)
	}
}

func TestMinEditOptimalAssignment(t *testing.T) {
	// Greedy row-order matching would pair (1,1)->(1,9) at cost 1 then
	// (2,9)->(2,1) at cost 1: total 2. Optimal is also 2 here; build a case
	// where naive pairing is suboptimal:
	// A: (0,0), (5,5)   B: (5,6), (0,1)
	// In-order matching: (0,0)->(5,6)=2, (5,5)->(0,1)=2: total 4.
	// Optimal: (0,0)->(0,1)=1, (5,5)->(5,6)=1: total 2.
	a := rel([]int{0, 0}, []int{5, 5})
	b := rel([]int{5, 6}, []int{0, 1})
	if d := MinEdit(a, b); d != 2 {
		t.Errorf("got %d, want 2 (optimal assignment)", d)
	}
}

func TestMinEditMultisetAware(t *testing.T) {
	// Duplicate tuples must match one-to-one.
	a := rel([]int{1}, []int{1})
	b := rel([]int{1}, []int{2})
	if d := MinEdit(a, b); d != 1 {
		t.Errorf("got %d, want 1", d)
	}
	b2 := rel([]int{1}, []int{1}, []int{1})
	if d := MinEdit(a, b2); d != 1 {
		t.Errorf("got %d, want 1 (one insert of arity-1 tuple)", d)
	}
}

func TestScriptReconstructsTarget(t *testing.T) {
	a := rel([]int{1, 2}, []int{3, 4}, []int{5, 6})
	b := rel([]int{1, 9}, []int{5, 6}, []int{7, 8}, []int{0, 0})
	ops, cost := Script(a, b)
	// Verify cost equals sum of op costs and MinEdit.
	sum := 0
	for _, op := range ops {
		sum += op.Cost
	}
	if sum != cost {
		t.Errorf("op cost sum %d != script cost %d", sum, cost)
	}
	if cost != MinEdit(a, b) {
		t.Errorf("script cost %d != MinEdit %d", cost, MinEdit(a, b))
	}
	// Replay the script: modified+kept rows of a plus inserts = bag(b).
	out := relation.New("out", a.Schema)
	handled := make(map[int]bool)
	for _, op := range ops {
		if op.Kind == OpDelete {
			handled[op.RowA] = true
		}
	}
	modified := make(map[int]relation.Tuple)
	for i, tup := range a.Tuples {
		if !handled[i] {
			modified[i] = tup.Clone()
		}
	}
	for _, op := range ops {
		if op.Kind == OpModify {
			modified[op.RowA][op.Col] = op.To
		}
	}
	for _, tup := range modified {
		out.Append(tup)
	}
	for _, op := range ops {
		if op.Kind == OpInsert {
			out.Append(b.Tuples[op.RowB].Clone())
		}
	}
	if !out.BagEqual(b) {
		t.Errorf("script replay mismatch:\ngot %v\nwant %v", out.Tuples, b.Tuples)
	}
}

func TestMinEditSymmetryQuick(t *testing.T) {
	// Modify is symmetric and insert/delete have equal cost, so minEdit is
	// symmetric.
	f := func(av, bv []uint8) bool {
		a, b := rel(), rel()
		schema := relation.NewSchema("a", relation.KindInt, "b", relation.KindInt)
		a.Schema, b.Schema = schema, schema
		for _, v := range av {
			a.Append(relation.NewTuple(int(v%4), int(v/4%4)))
		}
		for _, v := range bv {
			b.Append(relation.NewTuple(int(v%4), int(v/4%4)))
		}
		if a.Len() > 6 || b.Len() > 6 {
			return true // keep Hungarian small in the property test
		}
		return MinEdit(a, b) == MinEdit(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMinEditTriangleInequalityQuick(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	mk := func(n int) *relation.Relation {
		r := rel()
		r.Schema = relation.NewSchema("a", relation.KindInt, "b", relation.KindInt)
		for i := 0; i < n; i++ {
			r.Append(relation.NewTuple(rnd.Intn(3), rnd.Intn(3)))
		}
		return r
	}
	for trial := 0; trial < 100; trial++ {
		a, b, c := mk(rnd.Intn(5)), mk(rnd.Intn(5)), mk(rnd.Intn(5))
		ab, bc, ac := MinEdit(a, b), MinEdit(b, c), MinEdit(a, c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d", ac, ab, bc)
		}
	}
}

func TestMinEditBruteForceSmall(t *testing.T) {
	// Cross-check the Hungarian solution against brute-force assignment on
	// all 3x3 permutations.
	rnd := rand.New(rand.NewSource(11))
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for trial := 0; trial < 200; trial++ {
		a, b := rel(), rel()
		schema := relation.NewSchema("a", relation.KindInt, "b", relation.KindInt, "c", relation.KindInt)
		a.Schema, b.Schema = schema, schema
		for i := 0; i < 3; i++ {
			a.Append(relation.NewTuple(rnd.Intn(3), rnd.Intn(3), rnd.Intn(3)))
			b.Append(relation.NewTuple(rnd.Intn(3), rnd.Intn(3), rnd.Intn(3)))
		}
		best := 1 << 30
		for _, p := range perms {
			c := 0
			for i, j := range p {
				c += a.Tuples[i].DiffCount(b.Tuples[j])
			}
			if c < best {
				best = c
			}
		}
		if got := MinEdit(a, b); got != best {
			t.Fatalf("trial %d: MinEdit=%d, brute force=%d\na=%v\nb=%v",
				trial, got, best, a.Tuples, b.Tuples)
		}
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	MinEdit(rel([]int{1}), rel([]int{1, 2}))
}

func TestHungarianKnownMatrix(t *testing.T) {
	// Classic example with optimum 5: rows to cols 0->1(2), 1->0(3)... use a
	// fixed matrix with known optimal assignment cost.
	cost := [][]int{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	_, total := hungarian(cost)
	if total != 5 {
		t.Errorf("hungarian total = %d, want 5", total)
	}
	if _, total := hungarian(nil); total != 0 {
		t.Error("empty matrix should cost 0")
	}
}
