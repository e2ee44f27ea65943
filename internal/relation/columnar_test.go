package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randColValue draws from a small mixed-kind pool, including Int/Float
// aliases of the same number so dictionary classes actually merge.
func randColValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Int(int64(rng.Intn(4)))
	case 1:
		return Float(float64(rng.Intn(4))) // KeyEqual to the Int above
	case 2:
		return Str([]string{"x", "y", "z"}[rng.Intn(3)])
	case 3:
		return Bool(rng.Intn(2) == 0)
	case 4:
		return Null()
	default:
		return Float(float64(rng.Intn(4)) + 0.5)
	}
}

func randColRelation(rng *rand.Rand) *Relation {
	r := New("T", NewSchema("a", KindInt, "b", KindString, "c", KindFloat))
	n := rng.Intn(40)
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, Tuple{randColValue(rng), randColValue(rng), randColValue(rng)})
	}
	return r
}

// checkColumnar asserts the dictionary-code invariants: every row's code
// resolves to a KeyEqual representative, two rows share a code in a column
// exactly when their values are KeyEqual, and the dictionary read in
// SortedCodes order is the row-at-a-time ActiveDomain. A DictIndex over
// the dictionary finds exactly the values some entry is KeyEqual to, at
// that entry's code, and GroupBy over the codes lists each code's rows.
func checkColumnar(t *testing.T, seed int64) {
	t.Helper()
	err := quick.Check(func(s int64) bool {
		rng := rand.New(rand.NewSource(seed ^ s))
		r := randColRelation(rng)
		c := NewColumnar(r)
		if c.NumRows() != r.Len() || len(c.Schema()) != r.Arity() {
			t.Logf("shape mismatch: %d/%d rows, %d/%d cols",
				c.NumRows(), r.Len(), len(c.Schema()), r.Arity())
			return false
		}
		for ci := 0; ci < r.Arity(); ci++ {
			cd := c.Col(ci)
			for ri, t0 := range r.Tuples {
				v := t0[ci]
				if !cd.Dict[cd.Codes[ri]].KeyEqual(v) {
					t.Logf("col %d row %d: code %d resolves to %v, value %v",
						ci, ri, cd.Codes[ri], cd.Dict[cd.Codes[ri]], v)
					return false
				}
				for rj := 0; rj < ri; rj++ {
					same := cd.Codes[ri] == cd.Codes[rj]
					if same != v.KeyEqual(r.Tuples[rj][ci]) {
						t.Logf("col %d rows %d/%d: code-sharing %v but KeyEqual %v",
							ci, ri, rj, same, !same)
						return false
					}
				}
			}
			if got, want := c.SortedDomain(ci), r.ActiveDomain(r.Schema[ci].Name); !SameValues(got, want) {
				t.Logf("col %d: sorted dictionary %v, active domain %v", ci, got, want)
				return false
			}
			// Dictionary entries must be pairwise distinct under KeyEqual.
			for i := range cd.Dict {
				for j := 0; j < i; j++ {
					if cd.Dict[i].KeyEqual(cd.Dict[j]) {
						t.Logf("col %d: duplicate dictionary entries %d/%d", ci, i, j)
						return false
					}
				}
			}
			ix := NewDictIndex(cd.Dict)
			for k := 0; k < 20; k++ {
				v := randColValue(rng)
				want, held := uint32(0), false
				for c, d := range cd.Dict {
					if d.KeyEqual(v) {
						want, held = uint32(c), true
					}
				}
				if got, ok := ix.Lookup(v); ok != held || ok && got != want {
					t.Logf("col %d: lookup of %v gives %d %v, want %d %v", ci, v, got, ok, want, held)
					return false
				}
			}
			groups, rows := GroupBy(cd.Codes, len(cd.Dict)), 0
			for c := range cd.Dict {
				for i, ri := range groups.Of(c) {
					if cd.Codes[ri] != uint32(c) || i > 0 && ri <= groups.Of(c)[i-1] {
						t.Logf("col %d: code %d groups rows %v", ci, c, groups.Of(c))
						return false
					}
					rows++
				}
			}
			if rows != r.Len() {
				t.Logf("col %d: groups hold %d of %d rows", ci, rows, r.Len())
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestColumnarCodes(t *testing.T) { checkColumnar(t, 11) }

func TestColumnarCodesForcedCollisions(t *testing.T) {
	ForceHashCollisionsForTesting(2)
	defer ForceHashCollisionsForTesting(0)
	checkColumnar(t, 22)
}

// TestBagSmallModeSpill drives a bag from the small linear mode through the
// spill into the hash map and compares every observable against the legacy
// string-keyed reference at each step.
func TestBagSmallModeSpill(t *testing.T) {
	for _, bits := range []int{0, 2} {
		t.Run(fmt.Sprintf("collisionBits=%d", bits), func(t *testing.T) {
			ForceHashCollisionsForTesting(bits)
			defer ForceHashCollisionsForTesting(0)
			rng := rand.New(rand.NewSource(99))
			bag := NewBag(0) // starts in small mode regardless of final size
			ref := map[string]int{}
			tuple := func() Tuple {
				return Tuple{randColValue(rng), randColValue(rng)}
			}
			for step := 0; step < 4*smallBagMax; step++ {
				tup := tuple()
				switch rng.Intn(3) {
				case 0:
					d := rng.Intn(3) - 1
					got := bag.Inc(tup, d)
					ref[tup.Key()] += d
					if got != ref[tup.Key()] {
						t.Fatalf("step %d: Inc = %d, want %d", step, got, ref[tup.Key()])
					}
				case 1:
					if got, want := bag.Count(tup), ref[tup.Key()]; got != want {
						t.Fatalf("step %d: Count = %d, want %d", step, got, want)
					}
				default:
					got := bag.TakeOne(tup)
					want := ref[tup.Key()] > 0
					if want {
						ref[tup.Key()]--
					}
					if got != want {
						t.Fatalf("step %d: TakeOne = %v, want %v", step, got, want)
					}
				}
			}
			if bag.m == nil {
				t.Fatalf("bag never spilled after %d mixed operations", 4*smallBagMax)
			}
			total := 0
			for _, n := range ref {
				total += n
			}
			if bag.Total() != total {
				t.Fatalf("Total = %d, want %d", bag.Total(), total)
			}
			// Every surviving count must round-trip through ForEach.
			seen := map[string]int{}
			bag.ForEach(func(tp Tuple, n int) { seen[tp.Key()] += n })
			for k, n := range ref {
				if seen[k] != n {
					t.Fatalf("ForEach count for %q = %d, want %d", k, seen[k], n)
				}
			}
		})
	}
}

// TestBagSmallModeProj exercises the projection operations across the spill
// boundary.
func TestBagSmallModeProj(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bag := NewBag(0)
	ref := map[string]int{}
	idx := []int{1, 2}
	for step := 0; step < 12*smallBagMax; step++ {
		tup := Tuple{randColValue(rng), Int(int64(rng.Intn(8))), randColValue(rng)}
		key := tup.Project(idx).Key()
		if rng.Intn(2) == 0 {
			got := bag.IncProj(tup, idx, 1)
			ref[key]++
			if got != ref[key] {
				t.Fatalf("step %d: IncProj = %d, want %d", step, got, ref[key])
			}
		} else if got, want := bag.CountProj(tup, idx), ref[key]; got != want {
			t.Fatalf("step %d: CountProj = %d, want %d", step, got, want)
		}
	}
	if bag.m == nil {
		t.Fatal("projection bag never spilled")
	}
}

// TestBagSmallModeFingerprint asserts that a bag's 128-bit fingerprint is
// identical whether its entries live in the small slice or in the map.
func TestBagSmallModeFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tuples := make([]Tuple, smallBagMax)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), randColValue(rng)}
	}
	small := NewBag(0)             // stays in small mode (distinct <= max)
	big := NewBag(8 * smallBagMax) // map mode from the start
	for _, tp := range tuples {
		small.Inc(tp, 2)
		big.Inc(tp, 2)
	}
	for _, distinct := range []bool{false, true} {
		sl, sh := small.Fingerprint128(distinct)
		bl, bh := big.Fingerprint128(distinct)
		if sl != bl || sh != bh {
			t.Errorf("distinct=%v: small-mode fingerprint (%d,%d) != map-mode (%d,%d)",
				distinct, sl, sh, bl, bh)
		}
	}
	if small.m != nil {
		t.Error("small bag unexpectedly spilled")
	}
}
