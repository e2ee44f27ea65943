package datasets

import (
	"testing"

	"qfe/internal/db"
)

func TestScientificShape(t *testing.T) {
	s := NewScientific()
	main := s.DB.Table(SciMainTable)
	ref := s.DB.Table(SciRefTable)
	// Paper §7.1: 3926 × 16 and 424 × 3; join = 417.
	if main.Len() != 3926 || main.Arity() != 16 {
		t.Errorf("main = %d×%d, want 3926×16", main.Len(), main.Arity())
	}
	if ref.Len() != 424 || ref.Arity() != 3 {
		t.Errorf("ref = %d×%d, want 424×3", ref.Len(), ref.Arity())
	}
	if err := s.DB.Validate(); err != nil {
		t.Fatalf("constraints violated: %v", err)
	}
	j, err := db.JoinAll(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 417 {
		t.Errorf("join = %d tuples, want 417", j.Len())
	}
}

func TestScientificQueryCardinalities(t *testing.T) {
	s := NewScientific()
	// Paper: |Q1(D)| = 1, |Q2(D)| = 6.
	r1, err := s.Q1.Evaluate(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 {
		t.Errorf("|Q1(D)| = %d, want 1", r1.Len())
	}
	r2, err := s.Q2.Evaluate(s.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 6 {
		t.Errorf("|Q2(D)| = %d, want 6", r2.Len())
	}
}

func TestScientificDeterminism(t *testing.T) {
	a, b := NewScientific(), NewScientific()
	ja, _ := db.JoinAll(a.DB)
	jb, _ := db.JoinAll(b.DB)
	if !ja.Relation().BagEqual(jb.Relation()) {
		t.Error("generation must be deterministic")
	}
}

func TestBaseballShape(t *testing.T) {
	b := NewBaseball()
	// Paper §7.1: Manager 200×11, Team 252×29, Batting 6977×15, join 8810.
	cases := []struct {
		table       string
		rows, arity int
	}{
		{BBManager, 200, 11},
		{BBTeam, 252, 29},
		{BBBatting, 6977, 15},
	}
	for _, c := range cases {
		tab := b.DB.Table(c.table)
		if tab.Len() != c.rows || tab.Arity() != c.arity {
			t.Errorf("%s = %d×%d, want %d×%d", c.table, tab.Len(), tab.Arity(), c.rows, c.arity)
		}
	}
	if err := b.DB.Validate(); err != nil {
		t.Fatalf("constraints violated: %v", err)
	}
	j, err := db.JoinAll(b.DB)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != b.ExpectedJoinedSize || j.Len() != 8810 {
		t.Errorf("3-way join = %d tuples, want 8810", j.Len())
	}
}

func TestBaseballQueryCardinalities(t *testing.T) {
	b := NewBaseball()
	// Paper: |Q3..Q6| = 5, 14, 4, 4.
	want := map[string]int{"Q3": 5, "Q4": 14, "Q5": 4, "Q6": 4}
	r3, err := b.Q3.Evaluate(b.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Len() != want["Q3"] {
		t.Errorf("|Q3(D)| = %d, want %d", r3.Len(), want["Q3"])
	}
	r4, err := b.Q4.Evaluate(b.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Len() != want["Q4"] {
		t.Errorf("|Q4(D)| = %d, want %d", r4.Len(), want["Q4"])
	}
	r5, err := b.Q5.Evaluate(b.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Len() != want["Q5"] {
		t.Errorf("|Q5(D)| = %d, want %d", r5.Len(), want["Q5"])
	}
	r6, err := b.Q6.Evaluate(b.DB)
	if err != nil {
		t.Fatal(err)
	}
	if r6.Len() != want["Q6"] {
		t.Errorf("|Q6(D)| = %d, want %d", r6.Len(), want["Q6"])
	}
}

func TestBaseballManagerJoinForQ3(t *testing.T) {
	b := NewBaseball()
	// Manager ⋈ Team (two tables) must work too: 200 manager rows all match.
	j, err := db.Join(b.DB, []string{BBManager, BBTeam})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 200 {
		t.Errorf("Manager⋈Team = %d, want 200", j.Len())
	}
}

func TestAdultShape(t *testing.T) {
	a := NewAdult()
	tab := a.DB.Table(AdultTable)
	// Paper §7.7: 5227 tuples.
	if tab.Len() != 5227 {
		t.Errorf("Adult = %d rows, want 5227", tab.Len())
	}
	if tab.Arity() != 13 {
		t.Errorf("Adult arity = %d, want 13", tab.Arity())
	}
	if err := a.DB.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Targets) != 3 {
		t.Fatalf("want 3 target queries")
	}
}

func TestAdultTargetsSelectOnlyPlantedRows(t *testing.T) {
	a := NewAdult()
	want := []int{5, 4, 6}
	for i, q := range a.Targets {
		r, err := q.Evaluate(a.DB)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != want[i] {
			t.Errorf("|%s(D)| = %d, want %d", q.Name, r.Len(), want[i])
		}
	}
}

func TestAdultDeterminism(t *testing.T) {
	a, b := NewAdult(), NewAdult()
	if !a.DB.Table(AdultTable).BagEqual(b.DB.Table(AdultTable)) {
		t.Error("generation must be deterministic")
	}
}
