package qbo

import (
	"math"
	"math/rand"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// excludesAllReference is the row-at-a-time exclusion test the reject
// bitsets replaced: compile the conjunct and scan the rows through
// Term.Matches on the actual row values. It reports whether the conjunct
// rejects every row of excluded.
func excludesAllReference(rel *relation.Relation, conj []algebra.Term, excluded []int) bool {
	match := algebra.Predicate{algebra.Conjunct(conj)}.Compile(rel.Schema)
	for _, ri := range excluded {
		if match(rel.Tuples[ri]) {
			return false
		}
	}
	return true
}

// rejectTestPool is a column's value pool: NULL, Int/Float pairs that share
// a dictionary code (3 ≡ 3.0), NaN, and cross-kind values.
func rejectTestPool(kind relation.Kind) []relation.Value {
	switch kind {
	case relation.KindString:
		return []relation.Value{relation.Null(), relation.Str("a"), relation.Str("b"),
			relation.Str("c"), relation.Str(""), relation.Str("ab")}
	case relation.KindBool:
		return []relation.Value{relation.Null(), relation.Bool(false), relation.Bool(true)}
	default:
		return []relation.Value{relation.Null(), relation.Int(0), relation.Float(0),
			relation.Float(math.Copysign(0, -1)), relation.Int(3), relation.Float(3),
			relation.Float(2.5), relation.Int(-7), relation.Float(math.NaN()),
			relation.Float(math.Inf(1)), relation.Int(1 << 60), relation.Int(1<<60 + 1)}
	}
}

func rejectTestJoin(rng *rand.Rand, rows int) *db.Joined {
	kinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBool}
	rel := relation.New("T", relation.NewSchema(
		"i", kinds[0], "f", kinds[1], "s", kinds[2], "b", kinds[3]))
	for r := 0; r < rows; r++ {
		t := make(relation.Tuple, len(kinds))
		for ci, k := range kinds {
			pool := rejectTestPool(k)
			t[ci] = pool[rng.Intn(len(pool))]
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return tableJoin(rel)
}

// tableJoin is the one-table join of rel, whose columns it qualifies.
func tableJoin(rel *relation.Relation) *db.Joined {
	d := db.New()
	d.MustAddTable(rel)
	j, err := db.Join(d, []string{rel.Name})
	if err != nil {
		panic(err)
	}
	return j
}

// rejectTestTerm draws a term on column ci with any operator, its constant
// or set drawn from every column's pool (so NULL, NaN and cross-kind
// constants occur).
func rejectTestTerm(rng *rand.Rand, j *db.Joined, ci int) algebra.Term {
	var all []relation.Value
	for _, k := range []relation.Kind{relation.KindInt, relation.KindString, relation.KindBool} {
		all = append(all, rejectTestPool(k)...)
	}
	own := rejectTestPool(j.Schema()[ci].Type)
	pick := func() relation.Value {
		if rng.Intn(4) == 0 {
			return all[rng.Intn(len(all))]
		}
		return own[rng.Intn(len(own))]
	}
	attr := j.Schema()[ci].Name
	op := algebra.Op(rng.Intn(int(algebra.OpNotIn) + 1))
	if op == algebra.OpIn || op == algebra.OpNotIn {
		set := make([]relation.Value, 1+rng.Intn(3))
		for i := range set {
			set[i] = pick()
		}
		return algebra.NewSetTerm(attr, op, set)
	}
	return algebra.NewTerm(attr, op, pick())
}

// TestRejectBitsetsMatchRowScan is the property behind the cluster DNF's
// exclusion test: per-code reject sets agree bit for bit with
// Term.Matches on the row values, and the union of a conjunct's reject sets
// covers a row list exactly when the row-at-a-time reference says the
// conjunct rejects every row of it. Row lists straddle the word boundary
// (63, 64, 65 rows), and the dictionaries are also built under forced hash
// collisions.
func TestRejectBitsetsMatchRowScan(t *testing.T) {
	defer relation.ForceHashCollisionsForTesting(0)
	var outcomes [2]int // conjuncts over 63+ rows that do not / do reject them all
	for _, collisionBits := range []int{0, 2} {
		relation.ForceHashCollisionsForTesting(collisionBits)
		rng := rand.New(rand.NewSource(int64(17 + collisionBits)))
		for trial := 0; trial < 60; trial++ {
			j := rejectTestJoin(rng, 70+rng.Intn(60))
			ix, rel := newJoinIndex(j), j.Relation()
			for _, n := range []int{0, 1, 63, 64, 65} {
				rows := rng.Perm(j.Len())[:n]
				for c := 0; c < 20; c++ {
					conj := make([]algebra.Term, 1+rng.Intn(3))
					sets := make([][]uint64, len(conj))
					for k := range conj {
						ci := rng.Intn(len(j.Schema()))
						conj[k] = rejectTestTerm(rng, j, ci)
						sets[k] = ix.rejects(&conj[k], ci, rows)
						for b, ri := range rows {
							got := sets[k][b>>6]&(1<<(b&63)) != 0
							if want := !conj[k].Matches(rel.Tuples[ri][ci]); got != want {
								t.Fatalf("collisions %d: %s on %v: reject bit %v, want %v",
									collisionBits, conj[k], rel.Tuples[ri][ci], got, want)
							}
						}
					}
					union := make([]uint64, (n+63)/64)
					for _, s := range sets {
						for w := range union {
							union[w] |= s[w]
						}
					}
					got, want := covers(n, union, nil), excludesAllReference(rel, conj, rows)
					if got != want {
						t.Fatalf("collisions %d, %d rows: %v: covers %v, reference %v",
							collisionBits, n, algebra.Conjunct(conj), got, want)
					}
					if n >= 63 && want {
						outcomes[1]++
					} else if n >= 63 {
						outcomes[0]++
					}
					if len(sets) >= 2 {
						if got, want := covers(n, sets[0], sets[1]), excludesAllReference(rel, conj[:2], rows); got != want {
							t.Fatalf("collisions %d, %d rows: %v: pair covers %v, reference %v",
								collisionBits, n, algebra.Conjunct(conj[:2]), got, want)
						}
					}
				}
			}
		}
		relation.ForceHashCollisionsForTesting(0)
	}
	if outcomes[0] < 100 || outcomes[1] < 100 {
		t.Errorf("too few conjuncts over 63+ rows with each outcome: %d keep a row, %d reject all", outcomes[0], outcomes[1])
	}
	t.Logf("conjuncts over 63+ rows: %d keep a row, %d reject all", outcomes[0], outcomes[1])
}

// TestClusterConjunctOnNullValue covers the one case where A = v's own
// reject set decides the refinement search: A = NULL matches no row, so it
// rejects the cluster's excluded row that no covering term separates (id 2
// lies inside the good rows' bounds), and the first refinement is kept, as
// the row-at-a-time check of the whole conjunct kept it.
func TestClusterConjunctOnNullValue(t *testing.T) {
	rel := relation.New("T", relation.NewSchema("id", relation.KindInt, "grp", relation.KindString))
	rel.Append(
		relation.NewTuple(1, nil), relation.NewTuple(2, nil),
		relation.NewTuple(3, nil), relation.NewTuple(4, "g"))
	j := tableJoin(rel)
	ix := newJoinIndex(j)
	cd := ix.col.Col(1)
	g := &generator{cfg: DefaultConfig()}
	cs := &clusterSet{ix: ix, ci: 1, excl: []bool{false, true, false, false}, byCode: make([]*cluster, len(cd.Dict))}
	pred, ok := g.buildClusterPredicate(cs, []uint32{cd.Codes[0]})
	if !ok {
		t.Fatal("no conjunct for the NULL cluster")
	}
	if got, want := pred.String(), "T.grp = NULL AND T.id >= 1"; got != want {
		t.Errorf("conjunct %q, want %q", got, want)
	}
	if !excludesAllReference(j.Relation(), pred[0], []int{1}) {
		t.Errorf("%s admits the excluded row", pred)
	}
}
