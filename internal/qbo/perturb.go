package qbo

import (
	"sort"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/relation"
)

// PerturbConstants enlarges a candidate set the way §7.6 does: "we generated
// 61 additional candidate queries from the initial candidate queries by
// modifying their selection predicate constants." For every scalar numeric
// term, the constant is moved to nearby positions inside the same active-
// domain gap (midpoints and adjacent data values); each variant is verified
// to still produce R on D before being kept.
//
// maxExtra caps the number of variants returned; the result excludes queries
// fingerprint-equal to the inputs or to each other.
func PerturbConstants(d *db.Database, r *relation.Relation, base []*algebra.Query, maxExtra int) ([]*algebra.Query, error) {
	seen := map[string]bool{}
	for _, q := range base {
		seen[q.Key()] = true
	}
	var out []*algebra.Query

	codes := db.NewCodes(d)
	joins := map[string]*joinIndex{}
	joinFor := func(q *algebra.Query) (*joinIndex, error) {
		k := q.JoinSchemaKey()
		if ix, ok := joins[k]; ok {
			return ix, nil
		}
		j, err := codes.Join(q.Tables)
		if err != nil {
			return nil, err
		}
		ix := newJoinIndex(j)
		joins[k] = ix
		return ix, nil
	}

	for _, q := range base {
		if maxExtra > 0 && len(out) >= maxExtra {
			break
		}
		ix, err := joinFor(q)
		if err != nil {
			return nil, err
		}
		// Collect the query's variants first, then verify them against D in
		// one shared columnar scan — the variants differ from q (and from
		// each other) in a single constant, so the batch's term table is
		// nearly fully shared.
		var variants []*algebra.Query
		for ci := range q.Pred {
			for ti := range q.Pred[ci] {
				term := q.Pred[ci][ti]
				if term.Op == algebra.OpIn || term.Op == algebra.OpNotIn || !term.Const.Kind.Numeric() {
					continue
				}
				for _, nc := range nearbyConstants(ix, term.Attr, term.Const) {
					v := q.Clone()
					v.Name = ""
					v.Pred[ci][ti].Const = nc
					variants = append(variants, v)
				}
			}
		}
		if len(variants) == 0 {
			continue
		}
		// Every variant shares q's projection, so a batch error (a
		// projection column missing from the join) is one every variant's
		// own evaluation would hit too: skip q's variants.
		results, err := algebra.BatchEvaluateOnJoined(variants, ix.col)
		if err != nil {
			continue
		}
		for vi, v := range variants {
			if maxExtra > 0 && len(out) >= maxExtra {
				break
			}
			fp := v.Key()
			if seen[fp] || !results[vi].BagEqual(r) {
				continue
			}
			seen[fp] = true
			out = append(out, v)
		}
	}
	for i, q := range out {
		q.Name = "P" + itoa(i+1)
	}
	return out, nil
}

// nearbyConstants proposes replacement constants around c: the adjacent
// active-domain values of attr's column (its memoised numeric domain) and
// the midpoints of the gaps on either side of c.
func nearbyConstants(ix *joinIndex, attr string, c relation.Value) []relation.Value {
	col := ix.j.Schema().IndexOf(attr)
	if col < 0 {
		return nil
	}
	kind := ix.j.Schema()[col].Type
	vals := ix.numericDomain(col)
	if len(vals) == 0 {
		return nil
	}
	cf := c.AsFloat()
	// Locate neighbours of cf in the active domain.
	lo := sort.SearchFloat64s(vals, cf)
	var cands []float64
	if lo > 0 {
		below := vals[lo-1]
		cands = append(cands, below, (below+cf)/2)
	}
	if lo < len(vals) {
		at := vals[lo]
		if at != cf {
			cands = append(cands, at, (at+cf)/2)
		} else if lo+1 < len(vals) {
			above := vals[lo+1]
			cands = append(cands, above, (above+cf)/2)
		}
	}
	var out []relation.Value
	for _, f := range cands {
		if f == cf {
			continue
		}
		if kind == relation.KindInt {
			i := int64(f)
			if float64(i) != f {
				continue // keep int columns integral
			}
			out = append(out, relation.Int(i))
		} else {
			out = append(out, relation.Float(f))
		}
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
