package editdist

import (
	"fmt"

	"qfe/internal/relation"
)

// OpKind classifies one edit operation.
type OpKind uint8

// Edit operation kinds, matching the paper's E1/E2/E3.
const (
	OpModify OpKind = iota // E1: change one attribute of a kept tuple
	OpInsert               // E2: insert a tuple (cost = arity)
	OpDelete               // E3: delete a tuple (cost = arity)
)

// Op is one step of an edit script transforming relation A into relation B.
type Op struct {
	Kind OpKind
	// RowA indexes the tuple in A being modified or deleted (-1 for insert);
	// RowB indexes the tuple in B being produced (-1 for delete).
	RowA, RowB int
	// Col, From, To describe a single attribute modification (OpModify).
	Col      int
	From, To relation.Value
	// Cost of this op: 1 for modify, arity for insert/delete.
	Cost int
}

// String renders the op for Δ(D,R) presentation.
func (o Op) String() string {
	switch o.Kind {
	case OpModify:
		return fmt.Sprintf("modify row %d col %d: %s -> %s", o.RowA, o.Col, o.From, o.To)
	case OpInsert:
		return fmt.Sprintf("insert row %d", o.RowB)
	case OpDelete:
		return fmt.Sprintf("delete row %d", o.RowA)
	default:
		return "op(?)"
	}
}

// MinEdit returns the minimum edit cost transforming a into b under the
// paper's cost model. Relations must have equal arity.
func MinEdit(a, b *relation.Relation) int {
	_, cost := match(a, b)
	return cost
}

// Script returns a minimum-cost edit script transforming a into b, along
// with its total cost. The script lists per-attribute modifications for
// matched tuples and insert/delete ops for unmatched ones.
func Script(a, b *relation.Relation) ([]Op, int) {
	pairs, cost := match(a, b)
	arity := a.Arity()
	var ops []Op
	for _, pr := range pairs {
		switch {
		case pr.a >= 0 && pr.b >= 0:
			ta, tb := a.Tuples[pr.a], b.Tuples[pr.b]
			for c := range ta {
				if !ta[c].Equal(tb[c]) {
					ops = append(ops, Op{Kind: OpModify, RowA: pr.a, RowB: pr.b,
						Col: c, From: ta[c], To: tb[c], Cost: 1})
				}
			}
		case pr.a >= 0:
			ops = append(ops, Op{Kind: OpDelete, RowA: pr.a, RowB: -1, Cost: arity})
		default:
			ops = append(ops, Op{Kind: OpInsert, RowA: -1, RowB: pr.b, Cost: arity})
		}
	}
	return ops, cost
}

// pair couples a row of A with a row of B; -1 marks "unmatched".
type pair struct{ a, b int }

// match computes the optimal assignment between the tuples of a and b.
// Tuples appearing in both relations (as a multiset) are matched first at
// zero cost; the Hungarian algorithm handles the remainder.
func match(a, b *relation.Relation) ([]pair, int) {
	if a.Arity() != b.Arity() {
		panic(fmt.Sprintf("editdist: arity mismatch %d vs %d", a.Arity(), b.Arity()))
	}
	arity := a.Arity()

	// Multiset-match identical tuples at zero cost. B's rows are bucketed by
	// tuple hash and matched with KeyEqual verification (the legacy key-
	// string index is reproduced exactly: among equal tuples, the highest
	// unused B row is taken first).
	byHash := make(map[uint64][]int, b.Len())
	for i, t := range b.Tuples {
		h := t.Hash64()
		byHash[h] = append(byHash[h], i)
	}
	usedB := make([]bool, b.Len())
	var pairs []pair
	var restA []int
	for i, t := range a.Tuples {
		bucket := byHash[t.Hash64()]
		matched := false
		for bi := len(bucket) - 1; bi >= 0; bi-- {
			j := bucket[bi]
			if usedB[j] || !b.Tuples[j].KeyEqual(t) {
				continue
			}
			usedB[j] = true
			pairs = append(pairs, pair{i, j})
			matched = true
			break
		}
		if !matched {
			restA = append(restA, i)
		}
	}
	var restB []int
	for j := range b.Tuples {
		if !usedB[j] {
			restB = append(restB, j)
		}
	}

	na, nb := len(restA), len(restB)
	if na == 0 && nb == 0 {
		return pairs, 0
	}
	// Square matrix padded with dummies: row dummy = insert, col dummy =
	// delete. Matching two real tuples costs their attribute distance, which
	// never exceeds arity, so real-real matches are never worse than
	// delete+insert.
	n := na
	if nb > n {
		n = nb
	}
	cost := make([][]int, n)
	for i := 0; i < n; i++ {
		cost[i] = make([]int, n)
		for j := 0; j < n; j++ {
			switch {
			case i < na && j < nb:
				cost[i][j] = a.Tuples[restA[i]].DiffCount(b.Tuples[restB[j]])
			case i < na: // real row, dummy column: delete
				cost[i][j] = arity
			case j < nb: // dummy row, real column: insert
				cost[i][j] = arity
			default:
				cost[i][j] = 0
			}
		}
	}
	assign, total := hungarian(cost)
	for i := 0; i < n; i++ {
		j := assign[i]
		switch {
		case i < na && j < nb:
			pairs = append(pairs, pair{restA[i], restB[j]})
		case i < na:
			pairs = append(pairs, pair{restA[i], -1})
		case j < nb:
			pairs = append(pairs, pair{-1, restB[j]})
		}
	}
	return pairs, total
}
