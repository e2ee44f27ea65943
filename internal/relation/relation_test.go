package relation

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func employeeRel() *Relation {
	r := New("Employee", NewSchema(
		"Eid", KindInt, "name", KindString, "gender", KindString,
		"dept", KindString, "salary", KindInt))
	r.Append(
		NewTuple(1, "Alice", "F", "Sales", 3700),
		NewTuple(2, "Bob", "M", "IT", 4200),
		NewTuple(3, "Celina", "F", "Service", 3000),
		NewTuple(4, "Darren", "M", "IT", 5000),
	)
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("a", KindInt, "b", KindString)
	if s.IndexOf("a") != 0 || s.IndexOf("b") != 1 || s.IndexOf("c") != -1 {
		t.Error("IndexOf broken")
	}
	if got := s.Names(); got[0] != "a" || got[1] != "b" {
		t.Error("Names broken")
	}
	if !slices.Equal(s, s.Clone()) {
		t.Error("Clone should equal original")
	}
	q := s.Qualify("T")
	if q[0].Name != "T.a" || q[1].Name != "T.b" {
		t.Errorf("Qualify = %v", q.Names())
	}
	// Qualify is idempotent on already-qualified names.
	if qq := q.Qualify("U"); qq[0].Name != "T.a" {
		t.Errorf("double Qualify = %v", qq.Names())
	}
	cat := s.Concat(NewSchema("c", KindBool))
	if len(cat) != 3 || cat[2].Name != "c" {
		t.Error("Concat broken")
	}
	if s.String() != "a:int, b:string" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema("a", KindInt, "b", KindString, "c", KindBool)
	p, err := s.Project([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Name != "c" || p[1].Name != "a" {
		t.Errorf("Project order = %v", p.Names())
	}
	if _, err := s.Project([]string{"zzz"}); err == nil {
		t.Error("Project should fail on missing column")
	}
}

func TestTupleBasics(t *testing.T) {
	a := NewTuple(1, "x", 2.5)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be equal")
	}
	b[0] = Int(9)
	if a.Equal(b) {
		t.Error("mutated clone should differ")
	}
	if a.DiffCount(b) != 1 {
		t.Errorf("DiffCount = %d, want 1", a.DiffCount(b))
	}
	if a.DiffCount(NewTuple(1)) != 3 {
		t.Error("DiffCount across arities should be max arity")
	}
	if got := a.String(); got != "(1, x, 2.5)" {
		t.Errorf("String = %q", got)
	}
	if !NewTuple(1, "a").Less(NewTuple(1, "b")) {
		t.Error("Less lexicographic order broken")
	}
	if !NewTuple(1).Less(NewTuple(1, "a")) {
		t.Error("shorter prefix should sort first")
	}
}

func TestTupleKeyCollisionResistance(t *testing.T) {
	// Adjacent string cells must not be confusable.
	a := NewTuple("ab", "c")
	b := NewTuple("a", "bc")
	if a.Key() == b.Key() {
		t.Error("tuple key collision between (ab,c) and (a,bc)")
	}
}

func TestRelationProjectSelect(t *testing.T) {
	r := employeeRel()
	males := r.Select(func(tu Tuple) bool { return tu[2].Equal(Str("M")) })
	if males.Len() != 2 {
		t.Fatalf("males = %d, want 2", males.Len())
	}
	names, err := males.Project([]string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	want := New("", NewSchema("name", KindString)).
		Append(NewTuple("Bob"), NewTuple("Darren"))
	if !names.BagEqual(want) {
		t.Errorf("project = %v", names.Tuples)
	}
	if _, err := r.Project([]string{"no_such"}); err == nil {
		t.Error("Project should fail on missing column")
	}
}

func TestBagEqualOrderInsensitive(t *testing.T) {
	a := New("a", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(2), NewTuple(2))
	b := New("b", NewSchema("x", KindInt)).Append(NewTuple(2), NewTuple(1), NewTuple(2))
	c := New("c", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(2))
	d := New("d", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(1), NewTuple(2))
	if !a.BagEqual(b) {
		t.Error("a and b are bag-equal")
	}
	if a.BagEqual(c) {
		t.Error("a and c differ in cardinality")
	}
	if a.BagEqual(d) {
		t.Error("a and d differ in multiplicities")
	}
	if !a.SetEqual(c) || !a.SetEqual(d) {
		t.Error("a, c, d are set-equal")
	}
	e := New("e", NewSchema("x", KindInt)).Append(NewTuple(3))
	if a.SetEqual(e) {
		t.Error("a and e are not set-equal")
	}
}

func TestFingerprintMatchesBagEqual(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mk := func(vals []int) *Relation {
		rel := New("t", NewSchema("x", KindInt))
		for _, v := range vals {
			rel.Append(NewTuple(v))
		}
		return rel
	}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(3)
		}
		perm := append([]int(nil), vals...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		a, b := mk(vals), mk(perm)
		if a.slowFingerprint(false) != b.slowFingerprint(false) || !a.BagEqual(b) {
			t.Fatalf("permuted bags should share fingerprint and be BagEqual: %v vs %v", vals, perm)
		}
		other := make([]int, n)
		copy(other, vals)
		if n > 0 {
			other[r.Intn(n)] += 10
			c := mk(other)
			if a.slowFingerprint(false) == c.slowFingerprint(false) {
				t.Fatalf("different bags share fingerprint: %v vs %v", vals, other)
			}
			if a.BagEqual(c) {
				t.Fatalf("different bags BagEqual: %v vs %v", vals, other)
			}
		}
	}
}

func TestSetFingerprint(t *testing.T) {
	a := New("a", NewSchema("x", KindInt)).Append(NewTuple(1), NewTuple(1), NewTuple(2))
	b := New("b", NewSchema("x", KindInt)).Append(NewTuple(2), NewTuple(1))
	if a.slowFingerprint(true) != b.slowFingerprint(true) || !a.SetEqual(b) {
		t.Error("set fingerprints and SetEqual should collapse duplicates")
	}
	if a.slowFingerprint(false) == b.slowFingerprint(false) || a.BagEqual(b) {
		t.Error("bag fingerprints and BagEqual should not collapse duplicates")
	}
}

func TestDistinct(t *testing.T) {
	a := New("a", NewSchema("x", KindInt)).Append(NewTuple(2), NewTuple(1), NewTuple(2))
	d := a.Distinct()
	if d.Len() != 2 {
		t.Fatalf("distinct len = %d", d.Len())
	}
	// First occurrence order preserved.
	if !d.Tuples[0].Equal(NewTuple(2)) || !d.Tuples[1].Equal(NewTuple(1)) {
		t.Errorf("distinct order = %v", d.Tuples)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := employeeRel()
	c := r.Clone()
	c.Tuples[0][1] = Str("Mallory")
	if r.Tuples[0][1].S != "Alice" {
		t.Error("Clone must deep-copy tuples")
	}
}

func TestActiveDomain(t *testing.T) {
	r := employeeRel()
	depts := r.ActiveDomain("dept")
	got := make([]string, len(depts))
	for i, v := range depts {
		got[i] = v.S
	}
	want := []string{"IT", "Sales", "Service"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("ActiveDomain = %v, want %v", got, want)
	}
}

// Less orders tuples lexicographically by Value.Compare; used for
// canonical sorting.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		switch t[i].Compare(u[i]) {
		case -1:
			return true
		case 1:
			return false
		}
	}
	return len(t) < len(u)
}

// Clone deep-copies the relation (schema, tuples, values).
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Schema: r.Schema.Clone(), Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	t := make(Schema, len(s))
	copy(t, s)
	return t
}

// Sorted returns a copy of the relation with tuples in canonical order.
func (r *Relation) Sorted() *Relation {
	c := r.Clone()
	sort.Slice(c.Tuples, func(i, j int) bool { return c.Tuples[i].Less(c.Tuples[j]) })
	return c
}

func TestSortedCanonical(t *testing.T) {
	a := New("a", NewSchema("x", KindInt, "y", KindString)).
		Append(NewTuple(2, "b"), NewTuple(1, "z"), NewTuple(2, "a"))
	s := a.Sorted()
	if !sort.SliceIsSorted(s.Tuples, func(i, j int) bool { return s.Tuples[i].Less(s.Tuples[j]) }) {
		t.Error("Sorted not in canonical order")
	}
	if a.Tuples[0][0].I != 2 {
		t.Error("Sorted must not mutate the receiver")
	}
}

func TestRelationString(t *testing.T) {
	s := employeeRel().String()
	if !strings.Contains(s, "Employee") || !strings.Contains(s, "Darren") {
		t.Errorf("render missing content:\n%s", s)
	}
	if !strings.Contains(s, "salary") {
		t.Errorf("render missing header:\n%s", s)
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong arity should panic")
		}
	}()
	New("t", NewSchema("x", KindInt)).Append(NewTuple(1, 2))
}

func TestCSVRoundTrip(t *testing.T) {
	r := employeeRel()
	r.Tuples[2][3] = Null() // exercise NULL round-trip
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("Employee", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Schema, r.Schema) {
		t.Fatalf("schema round trip: %v vs %v", back.Schema, r.Schema)
	}
	if !back.BagEqual(r) {
		t.Fatalf("tuples round trip:\n%s\nvs\n%s", back, r)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("a:int\nxyz\n")); err == nil {
		t.Error("bad int cell should error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a:wibble\n1\n")); err == nil {
		t.Error("unknown type should error")
	}
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	// Bare column name defaults to string.
	r, err := ReadCSV("t", strings.NewReader("a\nhello\n"))
	if err != nil || r.Schema[0].Type != KindString {
		t.Errorf("bare header: %v %v", r, err)
	}
}

func TestBagEqualQuick(t *testing.T) {
	// Property: shuffling a relation never changes BagEqual/Fingerprint.
	f := func(xs []int8, seed int64) bool {
		rel := New("t", NewSchema("x", KindInt))
		for _, x := range xs {
			rel.Append(NewTuple(int(x)))
		}
		shuf := rel.Clone()
		rnd := rand.New(rand.NewSource(seed))
		rnd.Shuffle(len(shuf.Tuples), func(i, j int) {
			shuf.Tuples[i], shuf.Tuples[j] = shuf.Tuples[j], shuf.Tuples[i]
		})
		return rel.BagEqual(shuf) && rel.slowFingerprint(false) == shuf.slowFingerprint(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
