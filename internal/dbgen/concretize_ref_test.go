package dbgen

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"

	"qfe/internal/db"
	"qfe/internal/scenario"
	"qfe/internal/tupleclass"
)

// concretizeByCopy is the reference for concretize's constraint check: it
// applies the accepted edits and each candidate row's edits to a copy of d
// (ApplyEdits), validates every key of the whole copy, and turns the row
// down when that fails. It returns the accepted edits and pairs, and how
// many candidate rows the key check turned down.
func concretizeByCopy(g *Generator, d *db.Database, pairs []tupleclass.Pair) ([]db.CellEdit, []tupleclass.Pair, int) {
	var (
		edits      []db.CellEdit
		usedPairs  []tupleclass.Pair
		usedJoined = map[int]bool{}
		usedBase   = map[string]bool{}
		rejected   int
	)
	for _, p := range pairs {
		type cand struct{ row, badness int }
		var cands []cand
		for _, r := range g.srcRows[p.Src.Key()] {
			if !usedJoined[r] {
				cands = append(cands, cand{row: r, badness: g.sideEffectBadness(r, p)})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].badness != cands[b].badness {
				return cands[a].badness < cands[b].badness
			}
			return cands[a].row < cands[b].row
		})
		for _, c := range cands {
			rowEdits := g.editsForRow(c.row, p)
			if conflictsBase(rowEdits, usedBase) {
				continue
			}
			if c, err := d.ApplyEdits(append(slices.Clip(edits), rowEdits...)); err != nil || c.Validate() != nil {
				rejected++
				continue
			}
			for _, e := range rowEdits {
				usedBase[baseKey(e.Table, e.Row)] = true
			}
			usedJoined[c.row] = true
			edits = append(edits, rowEdits...)
			usedPairs = append(usedPairs, p)
			break
		}
	}
	return edits, usedPairs, rejected
}

// TestConcretizeMatchesCopyAndValidate checks concretize's indexed key check
// against the copy-and-validate reference on the first-round generators of
// corpus-seed-1 scenarios: every candidate set Algorithm 4 proposes and the
// first skyline pairs alone must concretize to the same edits and pairs,
// and the key check must turn some rows down. It repeats on each base made
// invalid by a duplicated primary key, where nothing may concretize.
func TestConcretizeMatchesCopyAndValidate(t *testing.T) {
	corpus, err := scenario.GenerateCorpus(1, 24, scenario.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sets, accepted, rejected, broken int
	for _, sc := range corpus {
		g := firstRoundGenerator(t, sc)
		if len(g.Queries) < 2 {
			continue
		}
		sp, stats := g.SkylinePairs()
		var trials [][]tupleclass.Pair
		for _, cs := range g.PickSubsets(sp, stats.X) {
			trials = append(trials, cs.Pairs)
		}
		for i := 0; i < len(sp) && i < 32; i++ {
			trials = append(trials, []tupleclass.Pair{sp[i].Pair})
		}
		invalid := duplicateKey(sc.DB)
		for _, pairs := range trials {
			wantEdits, wantPairs, n := concretizeByCopy(g, sc.DB, pairs)
			rejected += n
			res, err := g.concretize(pairs)
			switch {
			case errors.Is(err, errNotRealizable):
				if len(wantEdits) != 0 {
					t.Fatalf("%s: concretize realised nothing, reference accepted %v", sc.Name, wantEdits)
				}
			case err != nil:
				t.Fatal(err)
			case !reflect.DeepEqual(res.Edits, wantEdits) || !reflect.DeepEqual(res.Pairs, wantPairs):
				t.Fatalf("%s: concretize accepted %v, reference %v", sc.Name, res.Edits, wantEdits)
			default:
				accepted++
			}
			sets++
			if invalid == nil {
				continue
			}
			gi := *g
			gi.Keys = db.NewKeys(invalid)
			if _, err := gi.concretize(pairs); !errors.Is(err, errNotRealizable) {
				t.Fatalf("%s: concretize on an invalid base returned %v", sc.Name, err)
			}
			if edits, _, _ := concretizeByCopy(&gi, invalid, pairs); len(edits) != 0 {
				t.Fatalf("%s: reference accepted %v on an invalid base", sc.Name, edits)
			}
			broken++
		}
	}
	if accepted == 0 || rejected == 0 || broken == 0 {
		t.Fatalf("vacuous run: %d sets, %d realised, %d rows turned down, %d on invalid bases",
			sets, accepted, rejected, broken)
	}
	t.Logf("%d pair sets, %d realised, %d rows turned down, %d on invalid bases",
		sets, accepted, rejected, broken)
}

// duplicateKey returns a copy of d whose first primary key of two or more
// rows holds row 0's key in row 1, or nil when d has no such key.
func duplicateKey(d *db.Database) *db.Database {
	for _, pk := range d.PrimaryKeys {
		t := d.Table(pk.Table)
		if t == nil || t.Len() < 2 {
			continue
		}
		var edits []db.CellEdit
		for _, c := range pk.Columns {
			edits = append(edits, db.CellEdit{Table: pk.Table, Row: 1, Column: c,
				Value: t.Tuples[0][t.Schema.IndexOf(c)]})
		}
		out, err := d.ApplyEdits(edits)
		if err != nil {
			return nil
		}
		return out
	}
	return nil
}
