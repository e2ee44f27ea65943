package dbgen

import (
	"math"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/cost"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// example11 builds the paper's Example 1.1: Employee with QC = {Q1: gender
// = 'M', Q2: salary > 4000, Q3: dept = 'IT'}, all projecting name.
func example11(t *testing.T) (*db.Database, *db.Joined, []*algebra.Query, *relation.Relation) {
	t.Helper()
	d := db.New()
	r := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString,
		"gender", relation.KindString, "dept", relation.KindString,
		"salary", relation.KindInt))
	r.Append(
		relation.NewTuple(1, "Alice", "F", "Sales", 3700),
		relation.NewTuple(2, "Bob", "M", "IT", 4200),
		relation.NewTuple(3, "Celina", "F", "Service", 3000),
		relation.NewTuple(4, "Darren", "M", "IT", 5000),
	)
	d.MustAddTable(r)
	d.AddPrimaryKey("Employee", "Eid")

	mk := func(name string, term algebra.Term) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred:       algebra.Predicate{algebra.Conjunct{term}}}
	}
	qc := []*algebra.Query{
		mk("Q1", algebra.NewTerm("Employee.gender", algebra.OpEQ, relation.Str("M"))),
		mk("Q2", algebra.NewTerm("Employee.salary", algebra.OpGT, relation.Int(4000))),
		mk("Q3", algebra.NewTerm("Employee.dept", algebra.OpEQ, relation.Str("IT"))),
	}
	res := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, j, qc, res
}

func testOptions() Options {
	o := DefaultOptions()
	o.Budget = Budget{MaxPairs: 100000} // deterministic for tests
	return o
}

// newGenerator builds a round's space over j and the generator winnowing it.
func newGenerator(keys *db.Keys, j *db.Joined, qc []*algebra.Query, r *relation.Relation,
	opts Options, parallelism int) (*Generator, error) {
	space, err := NewSpace(j, qc)
	if err != nil {
		return nil, err
	}
	return New(keys, j, space, r, opts, parallelism)
}

func TestGenerateSplitsExample11(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partition) < 2 {
		t.Fatalf("D' must split QC, got partition %v", res.Partition)
	}
	total := 0
	for _, p := range res.Partition {
		total += len(p)
	}
	if total != 3 {
		t.Errorf("partition covers %d queries, want 3", total)
	}
	if len(res.Edits) == 0 {
		t.Error("expected at least one cell edit")
	}
	// The partition must be concretely correct: evaluate every query on D'
	// and check group consistency.
	modified := applied(t, d, res)
	for bi, grp := range res.Partition {
		var first *relation.Relation
		for gi, qi := range grp {
			out, err := qc[qi].Evaluate(modified)
			if err != nil {
				t.Fatal(err)
			}
			if gi == 0 {
				first = out
				if !out.BagEqual(res.Results[bi]) {
					t.Errorf("block %d representative result mismatch", bi)
				}
			} else if !out.BagEqual(first) {
				t.Errorf("block %d: %s and %s disagree on D'", bi, qc[grp[0]].Name, qc[qi].Name)
			}
		}
	}
	// Across blocks results differ.
	for i, r := range res.Results {
		for _, s := range res.Results[:i] {
			if r.BagEqual(s) {
				t.Error("two blocks share a result — partition is wrong")
			}
		}
	}
	// Costs populated.
	if res.DBCost != len(res.Edits) {
		t.Errorf("DBCost = %d, want %d", res.DBCost, len(res.Edits))
	}
	if res.NumRelations != 1 {
		t.Errorf("NumRelations = %d, want 1", res.NumRelations)
	}
	if res.ResultCost <= 0 {
		t.Errorf("ResultCost = %d, want > 0 (results differ from R)", res.ResultCost)
	}
}

func TestGeneratePrefersSmallEdits(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's D1 modifies a single attribute value; the cost model
	// should keep edits minimal here too.
	if res.DBCost > 2 {
		t.Errorf("DBCost = %d; expected a one- or two-cell modification", res.DBCost)
	}
}

func TestSkylinePairsNonEmptyAndScored(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, stats := g.SkylinePairs()
	if len(sp) == 0 {
		t.Fatal("no skyline pairs")
	}
	if stats.Enumerated < len(sp) {
		t.Errorf("enumerated %d < |SP| %d", stats.Enumerated, len(sp))
	}
	for _, p := range sp {
		if math.IsInf(p.Balance, 1) {
			t.Errorf("skyline pair %v does not split", p.Pair)
		}
		if p.Pair.EditCost < 1 {
			t.Errorf("pair with zero edit cost")
		}
	}
	// x should be defined here: binary partitions of {Q1,Q2,Q3} exist.
	if stats.X < 1 {
		t.Errorf("x = %d, want >= 1", stats.X)
	}
}

func TestBudgetTruncatesEnumeration(t *testing.T) {
	d, j, qc, r := example11(t)
	opts := testOptions()
	opts.Budget = Budget{MaxPairs: 3}
	g, err := newGenerator(db.NewKeys(d), j, qc, r, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := g.SkylinePairs()
	if stats.Enumerated > 3 {
		t.Errorf("budget of 3 pairs exceeded: %d", stats.Enumerated)
	}
	if !stats.Truncated {
		t.Error("truncation flag not set")
	}
}

func TestPickSubsetsRanked(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, stats := g.SkylinePairs()
	sets := g.PickSubsets(sp, stats.X)
	if len(sets) == 0 {
		t.Fatal("no candidate sets")
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Cost < sets[i-1].Cost {
			t.Error("candidate sets not ranked by cost")
		}
	}
	for _, cs := range sets {
		if len(cs.Pairs) != len(cs.Indices) {
			t.Error("pairs/indices mismatch")
		}
	}
}

func TestGenerateNoSplitForEquivalentQueries(t *testing.T) {
	d, j, _, r := example11(t)
	// Two syntactically different but semantically identical predicates
	// over the integer domain: salary > 4000 vs salary >= 4001.
	mk := func(name string, op algebra.Op, c int64) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"Employee"},
			Projection: []string{"Employee.name"},
			Pred: algebra.Predicate{algebra.Conjunct{
				algebra.NewTerm("Employee.salary", op, relation.Int(c))}}}
	}
	qc := []*algebra.Query{mk("A", algebra.OpGT, 4000), mk("B", algebra.OpGE, 4001)}
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err == nil {
		t.Fatal("equivalent queries must yield ErrNoSplit")
	}
}

func TestConcretizeRespectsPrimaryKey(t *testing.T) {
	// Force a scenario where the only distinguishing attribute is the
	// primary key; the generator must avoid creating duplicates.
	d := db.New()
	r := relation.New("T", relation.NewSchema("id", relation.KindInt, "x", relation.KindString))
	r.Append(
		relation.NewTuple(1, "a"),
		relation.NewTuple(2, "a"),
		relation.NewTuple(3, "b"),
	)
	d.MustAddTable(r)
	d.AddPrimaryKey("T", "id")
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, op algebra.Op, c int64) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"T"}, Projection: []string{"T.x"},
			Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm("T.id", op, relation.Int(c))}}}
	}
	qc := []*algebra.Query{mk("A", algebra.OpLE, 2), mk("B", algebra.OpLT, 3)}
	res := relation.New("R", relation.NewSchema("x", relation.KindString)).
		Append(relation.NewTuple("a"), relation.NewTuple("a"))
	g, err := newGenerator(db.NewKeys(d), j, qc, res, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Generate()
	if err != nil {
		// Equivalent over integers? A: id<=2, B: id<3 — identical on ints;
		// ErrNoSplit is the correct answer then.
		return
	}
	if err := applied(t, d, out).Validate(); err != nil {
		t.Errorf("generated D' violates constraints: %v", err)
	}
}

func TestGeneratedDBAlwaysValid(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	modified := applied(t, d, res)
	if err := modified.Validate(); err != nil {
		t.Errorf("D' violates constraints: %v", err)
	}
	// D' must differ from D in exactly DBCost cells.
	diff := 0
	for ti, tab := range d.Tables() {
		newTab := modified.Tables()[ti]
		for ri := range tab.Tuples {
			diff += tab.Tuples[ri].DiffCount(newTab.Tuples[ri])
		}
	}
	if diff != res.DBCost {
		t.Errorf("D/D' differ in %d cells, DBCost says %d", diff, res.DBCost)
	}
}

func TestSideEffectsAccountedInPartition(t *testing.T) {
	// Two-table database where the preferred modification has fan-out > 1:
	// the concrete partition must still be consistent with evaluation.
	d := db.New()
	t1 := relation.New("P", relation.NewSchema("pid", relation.KindInt, "cat", relation.KindString))
	t1.Append(relation.NewTuple(1, "x"), relation.NewTuple(2, "y"))
	t2 := relation.New("C", relation.NewSchema("cid", relation.KindInt, "pid", relation.KindInt,
		"v", relation.KindInt))
	t2.Append(
		relation.NewTuple(1, 1, 10),
		relation.NewTuple(2, 1, 20),
		relation.NewTuple(3, 2, 30),
	)
	d.MustAddTable(t1)
	d.MustAddTable(t2)
	d.AddPrimaryKey("P", "pid")
	d.AddPrimaryKey("C", "cid")
	d.AddForeignKey("C", []string{"pid"}, "P", []string{"pid"})
	j, err := db.JoinAll(d)
	if err != nil {
		t.Fatal(err)
	}
	mkQ := func(name, attr string, op algebra.Op, v relation.Value) *algebra.Query {
		return &algebra.Query{Name: name, Tables: []string{"P", "C"}, Projection: []string{"C.v"},
			Pred: algebra.Predicate{algebra.Conjunct{algebra.NewTerm(attr, op, v)}}}
	}
	qc := []*algebra.Query{
		mkQ("A", "P.cat", algebra.OpEQ, relation.Str("x")),
		mkQ("B", "C.v", algebra.OpLE, relation.Int(20)),
	}
	res := relation.New("R", relation.NewSchema("v", relation.KindInt)).
		Append(relation.NewTuple(10), relation.NewTuple(20))
	g, err := newGenerator(db.NewKeys(d), j, qc, res, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	modified := applied(t, d, out)
	for bi, grp := range out.Partition {
		for _, qi := range grp {
			direct, err := qc[qi].Evaluate(modified)
			if err != nil {
				t.Fatal(err)
			}
			if !direct.BagEqual(out.Results[bi]) {
				t.Errorf("query %s: incremental result diverges from direct evaluation (side effects mishandled)",
					qc[qi].Name)
			}
		}
	}
}

func TestEnumerateScoredPairsCap(t *testing.T) {
	d, j, qc, r := example11(t)
	g, err := newGenerator(db.NewKeys(d), j, qc, r, testOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := g.EnumerateScoredPairs(5)
	if len(ps) > 5 {
		t.Errorf("cap violated: %d", len(ps))
	}
	for _, p := range ps {
		if math.IsInf(p.Balance, 1) {
			t.Error("non-splitting pair returned")
		}
	}
}

func TestCostParamsFlowThrough(t *testing.T) {
	d, j, qc, r := example11(t)
	opts := testOptions()
	opts.Cost = cost.Params{Beta: 5}
	g, err := newGenerator(db.NewKeys(d), j, qc, r, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(); err != nil {
		t.Fatalf("β=5 run failed: %v", err)
	}
}

func TestNewRejectsEmptyQC(t *testing.T) {
	d, j, _, r := example11(t)
	if _, err := newGenerator(db.NewKeys(d), j, nil, r, testOptions(), 0); err == nil {
		t.Error("empty QC should be rejected")
	}
}

// applied returns D′: d with the result's edits applied.
func applied(t *testing.T, d *db.Database, res *Result) *db.Database {
	t.Helper()
	modified, err := d.ApplyEdits(res.Edits)
	if err != nil {
		t.Fatal(err)
	}
	return modified
}
