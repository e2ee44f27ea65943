package dbgen

import (
	"fmt"
	"sort"

	"qfe/internal/db"
	"qfe/internal/tupleclass"
)

// concretize maps an abstract pair set onto actual cell edits: each (s, d)
// pair picks a concrete joined tuple of class s and rewrites the changed
// attributes' base cells to d's representative values. Tuples are chosen to
// minimise join side effects (§5.4.1) and edits violating the database's
// integrity constraints are rejected (§6.3): the key index checks the
// accepted edits plus the row's, so D′ is never materialised. Pairs that
// cannot be realised are dropped; if nothing survives an error is returned.
func (g *Generator) concretize(pairs []tupleclass.Pair) (*Result, error) {
	var (
		edits, trial []db.CellEdit
		usedPairs    []tupleclass.Pair
		usedJoined   = map[int]bool{}
		usedBase     = map[string]bool{}
	)

	for _, p := range pairs {
		rows := g.srcRows[p.Src.Key()]
		if len(rows) == 0 {
			continue
		}
		// Rank candidate rows: fewer side effects first, then row order.
		type cand struct{ row, badness int }
		cands := make([]cand, 0, len(rows))
		for _, r := range rows {
			if usedJoined[r] {
				continue
			}
			cands = append(cands, cand{row: r, badness: g.sideEffectBadness(r, p)})
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
			trial = append(append(trial[:0], edits...), rowEdits...)
			if !g.Keys.Valid(trial) {
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
	if len(edits) == 0 {
		return nil, errNotRealizable
	}

	parts, results, resultCosts, err := g.partitionConcrete(edits)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Edits:        edits,
		Pairs:        usedPairs,
		Partition:    parts,
		Results:      results,
		DBCost:       len(edits),
		NumRelations: db.ModifiedRelations(edits),
	}
	for _, c := range resultCosts {
		res.ResultCost += c
	}
	if len(parts) > 0 {
		res.AvgResultCost = float64(res.ResultCost) / float64(len(parts))
	}
	return res, nil
}

// editsForRow builds the cell edits realising pair p on joined row `row`.
func (g *Generator) editsForRow(row int, p tupleclass.Pair) []db.CellEdit {
	var edits []db.CellEdit
	for _, a := range p.ChangedAttrs() {
		part := g.Space.Parts[a]
		ref := g.Joined.Cols[part.Col]
		edits = append(edits, db.CellEdit{
			Table:  ref.Table,
			Row:    g.Joined.BaseRow(row, ref.TableIdx),
			Column: ref.Column,
			Value:  part.Subsets[p.Dst[a]].Rep,
		})
	}
	return edits
}

// sideEffectBadness counts how many *other* joined tuples a modification of
// this row would drag along: the sum over edited base rows of (fan-out − 1).
func (g *Generator) sideEffectBadness(row int, p tupleclass.Pair) int {
	seen := map[string]bool{}
	badness := 0
	for _, a := range p.ChangedAttrs() {
		ref := g.Joined.Cols[g.Space.Parts[a].Col]
		b := g.Joined.BaseRow(row, ref.TableIdx)
		k := baseKey(ref.Table, b)
		if seen[k] {
			continue
		}
		seen[k] = true
		badness += g.Joined.FanOut(ref.Table, b) - 1
	}
	return badness
}

func baseKey(table string, row int) string { return fmt.Sprintf("%s|%d", table, row) }

func conflictsBase(edits []db.CellEdit, used map[string]bool) bool {
	for _, e := range edits {
		if used[baseKey(e.Table, e.Row)] {
			return true
		}
	}
	return false
}
