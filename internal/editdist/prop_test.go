package editdist

import (
	"math/rand"
	"testing"

	"qfe/internal/relation"
)

// bruteForceMinEdit computes the paper's relation edit distance by exhaustive
// assignment: every tuple of a is either matched to a distinct tuple of b
// (cost = number of differing attributes) or deleted (cost = arity);
// unmatched tuples of b are inserted (cost = arity). Exponential, usable
// only for the small relations of this property test.
func bruteForceMinEdit(a, b *relation.Relation) int {
	arity := a.Arity()
	used := make([]bool, b.Len())
	var rec func(i int) int
	rec = func(i int) int {
		if i == a.Len() {
			cost := 0
			for j := range used {
				if !used[j] {
					cost += arity // insert remaining b tuples
				}
			}
			return cost
		}
		best := arity + rec(i+1) // delete a[i]
		for j := 0; j < b.Len(); j++ {
			if used[j] {
				continue
			}
			used[j] = true
			if c := a.Tuples[i].DiffCount(b.Tuples[j]) + rec(i+1); c < best {
				best = c
			}
			used[j] = false
		}
		return best
	}
	return rec(0)
}

func randPropRelation(rng *rand.Rand, maxTuples int) *relation.Relation {
	schema := relation.NewSchema(
		"a", relation.KindInt, "b", relation.KindString, "c", relation.KindInt)
	cats := []string{"p", "q", "r"}
	r := relation.New("T", schema)
	n := rng.Intn(maxTuples + 1)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, relation.Tuple{
			relation.Int(int64(rng.Intn(4))),
			relation.Str(cats[rng.Intn(len(cats))]),
			relation.Int(int64(rng.Intn(3))),
		})
	}
	return r
}

// TestMinEditMatchesBruteForce: the Hungarian-based MinEdit must equal the
// exhaustive optimal assignment on random relations of up to 6 tuples. The
// domains are deliberately tiny so duplicate tuples (the zero-cost pre-match
// path) occur often.
func TestMinEditMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8131))
	for trial := 0; trial < 500; trial++ {
		a := randPropRelation(rng, 6)
		b := randPropRelation(rng, 6)
		got := MinEdit(a, b)
		want := bruteForceMinEdit(a, b)
		if got != want {
			t.Fatalf("trial %d: MinEdit = %d, brute force = %d\nA: %v\nB: %v",
				trial, got, want, a.Tuples, b.Tuples)
		}
		// The edit script must carry exactly the optimal cost, and its ops
		// must sum to it.
		ops, scriptCost := Script(a, b)
		if scriptCost != want {
			t.Fatalf("trial %d: Script cost %d != optimal %d", trial, scriptCost, want)
		}
		sum := 0
		for _, op := range ops {
			sum += op.Cost
		}
		if sum != scriptCost {
			t.Fatalf("trial %d: op costs sum to %d, script reports %d", trial, sum, scriptCost)
		}
	}
}

// TestMinEditIdentityAndSymmetry: d(a,a) = 0 and d(a,b) = d(b,a) on random
// relations — MinEdit is a metric-like distance over relations.
func TestMinEditIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		a := randPropRelation(rng, 6)
		b := randPropRelation(rng, 6)
		if d := MinEdit(a, a); d != 0 {
			t.Fatalf("trial %d: MinEdit(a,a) = %d", trial, d)
		}
		// Identity also holds across tuple reordering (bag semantics).
		shuffled := relation.New(a.Name, a.Schema).Append(a.Tuples...)
		rng.Shuffle(len(shuffled.Tuples), func(i, j int) {
			shuffled.Tuples[i], shuffled.Tuples[j] = shuffled.Tuples[j], shuffled.Tuples[i]
		})
		if d := MinEdit(a, shuffled); d != 0 {
			t.Fatalf("trial %d: MinEdit(a, shuffle(a)) = %d", trial, d)
		}
		if dab, dba := MinEdit(a, b), MinEdit(b, a); dab != dba {
			t.Fatalf("trial %d: asymmetric: d(a,b)=%d d(b,a)=%d\nA: %v\nB: %v",
				trial, dab, dba, a.Tuples, b.Tuples)
		}
	}
}

// TestMinEditTriangleInequality: d(a,c) <= d(a,b) + d(b,c). Not required by
// the paper but implied by the edit model; a violation would mean the
// assignment search is not finding minima.
func TestMinEditTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 200; trial++ {
		a := randPropRelation(rng, 5)
		b := randPropRelation(rng, 5)
		c := randPropRelation(rng, 5)
		dac, dab, dbc := MinEdit(a, c), MinEdit(a, b), MinEdit(b, c)
		if dac > dab+dbc {
			t.Fatalf("trial %d: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d\nA: %v\nB: %v\nC: %v",
				trial, dac, dab, dbc, a.Tuples, b.Tuples, c.Tuples)
		}
	}
}
