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

	joins := map[string]*db.Joined{}
	joinFor := func(q *algebra.Query) (*db.Joined, error) {
		k := q.JoinSchemaKey()
		if j, ok := joins[k]; ok {
			return j, nil
		}
		j, err := db.Join(d, q.Tables)
		if err != nil {
			return nil, err
		}
		joins[k] = j
		return j, nil
	}

	for _, q := range base {
		if maxExtra > 0 && len(out) >= maxExtra {
			break
		}
		j, err := joinFor(q)
		if err != nil {
			return nil, err
		}
		// Collect the query's variants first, then verify them against D in
		// one shared columnar scan — the variants differ from q (and from
		// each other) in a single constant, so the batch's term table is
		// nearly fully shared. A single variant keeps the scalar path (the
		// batch engine's differential reference).
		var variants []*algebra.Query
		for ci := range q.Pred {
			for ti := range q.Pred[ci] {
				term := q.Pred[ci][ti]
				if term.Op == algebra.OpIn || term.Op == algebra.OpNotIn || !term.Const.Kind.Numeric() {
					continue
				}
				for _, nc := range nearbyConstants(j.Rel, term.Attr, term.Const) {
					v := q.Clone()
					v.Name = ""
					v.Pred[ci][ti].Const = nc
					variants = append(variants, v)
				}
			}
		}
		var results []*relation.Relation
		if len(variants) > 1 {
			results, err = algebra.BatchEvaluateOnJoined(variants, j.Columnar(), 1)
			if err != nil {
				results = nil // fall back to per-variant scalar evaluation
			}
		}
		for vi, v := range variants {
			if maxExtra > 0 && len(out) >= maxExtra {
				break
			}
			fp := v.Key()
			if seen[fp] {
				continue
			}
			res := (*relation.Relation)(nil)
			if results != nil {
				res = results[vi]
			} else {
				var verr error
				res, verr = v.EvaluateOnJoined(j.Rel)
				if verr != nil {
					continue
				}
			}
			if !res.BagEqual(r) {
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
// active-domain values and the midpoints of the gaps on either side of c.
func nearbyConstants(joined *relation.Relation, attr string, c relation.Value) []relation.Value {
	col := joined.Schema.IndexOf(attr)
	if col < 0 {
		return nil
	}
	kind := joined.Schema[col].Type
	var vals []float64
	seen := map[float64]bool{}
	for _, t := range joined.Tuples {
		v := t[col]
		if !v.Kind.Numeric() {
			continue
		}
		f := v.AsFloat()
		if !seen[f] {
			seen[f] = true
			vals = append(vals, f)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
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
