// Package feedback implements the paper's Result Feedback module (§2): it
// presents the modified database D' and the candidate results R₁..Rₖ to a
// feedback source as differences from the original pair (D, R) — the
// Δ(D, Rᵢ) of Figure 1 — and collects the choice of the correct result.
//
// Besides the interactive oracle, the package provides the two automated
// feedback policies the paper's experiments use (§7.2): worst-case feedback
// (always pick the largest query subset) and target feedback (always pick
// the subset containing the target query), plus a simulated user with a
// response-time model for reproducing the §7.7 user study.
package feedback

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"qfe/internal/algebra"
	"qfe/internal/db"
	"qfe/internal/editdist"
	"qfe/internal/relation"
)

// View is everything one feedback round presents: the modified database (as
// edits over D), and the k distinct candidate results with the queries that
// produce them.
type View struct {
	Iteration int
	BaseDB    *db.Database
	BaseR     *relation.Relation
	// NewDB is D′ itself when the producer of the view already holds it.
	// The engine leaves it nil: a round carries only its edits, and
	// ModifiedDB rebuilds D′ for the readers that need it.
	NewDB   *db.Database
	Edits   []db.CellEdit
	Results []*relation.Relation
	Groups  [][]int // query indexes per result
	Queries []*algebra.Query
}

// ModifiedDB returns D′: NewDB when it is set, or else a copy of BaseDB with
// Edits applied.
func (v View) ModifiedDB() (*db.Database, error) {
	if v.NewDB != nil {
		return v.NewDB, nil
	}
	if v.BaseDB == nil {
		return nil, errors.New("feedback: view has neither D′ nor D")
	}
	d, err := v.BaseDB.ApplyEdits(v.Edits)
	if err != nil {
		return nil, fmt.Errorf("feedback: rebuilding D′: %w", err)
	}
	return d, nil
}

// Oracle chooses which presented result is the output of the user's target
// query on the modified database. Returning ok=false means "none of these
// results is correct" — the target query is outside the current candidate
// set (Algorithm 1's unstated escape hatch, §2).
type Oracle interface {
	Choose(v View) (choice int, ok bool, err error)
}

// WorstCase always selects the largest query subset, the paper's default
// automated policy "to examine worst-case behavior" (§7). Ties resolve to
// the first.
type WorstCase struct{}

// Choose implements Oracle.
func (WorstCase) Choose(v View) (int, bool, error) {
	best, size := -1, -1
	for i, g := range v.Groups {
		if len(g) > size {
			best, size = i, len(g)
		}
	}
	if best < 0 {
		return 0, false, errors.New("feedback: empty partition")
	}
	return best, true, nil
}

// Target follows a known target query: it evaluates the target on D' and
// picks the result block equal to the target's result. This reproduces the
// paper's "automated result feedback that always chooses the query subset
// that contains the target query".
type Target struct {
	Query *algebra.Query
}

// Choose implements Oracle. An exact (bag) match is preferred: the target's
// true result, as the user would see it printed, including multiplicities.
// For DISTINCT targets a set-level match is the fallback — a block
// materialised under bag semantics can be set-equal to the target's
// collapsed result without being identical, and picking such a block over
// an exact match would follow a different query than the user's (the
// simulation harness's invariant checks caught exactly that misstep).
func (t Target) Choose(v View) (int, bool, error) {
	modified, err := v.ModifiedDB()
	if err != nil {
		return 0, false, err
	}
	want, err := t.Query.Evaluate(modified)
	if err != nil {
		return 0, false, fmt.Errorf("feedback: evaluating target: %w", err)
	}
	for i, r := range v.Results {
		if want.BagEqual(r) {
			return i, true, nil
		}
	}
	if t.Query.Distinct {
		for i, r := range v.Results {
			if want.SetEqual(r) {
				return i, true, nil
			}
		}
	}
	return 0, false, nil // target's result not among the candidates
}

// Interactive prompts a human on Out and reads the chosen result number
// from In. The presentation follows the paper: differences only.
type Interactive struct {
	In  io.Reader
	Out io.Writer
}

// Choose implements Oracle.
func (ia Interactive) Choose(v View) (int, bool, error) {
	w := ia.Out
	fmt.Fprintf(w, "\n=== Iteration %d ===\n", v.Iteration)
	fmt.Fprintf(w, "Database changes (everything else is unchanged):\n%s", FormatEdits(v.BaseDB, v.Edits))
	for i, r := range v.Results {
		fmt.Fprintf(w, "\n[%d] Result %d differs from your original result by:\n%s",
			i+1, i+1, FormatResultDelta(v.BaseR, r))
	}
	fmt.Fprintf(w, "\nWhich result would your query produce on the modified database?\n")
	fmt.Fprintf(w, "Enter 1-%d, or 0 if none: ", len(v.Results))
	sc := bufio.NewScanner(ia.In)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		n, err := strconv.Atoi(text)
		if err != nil || n < 0 || n > len(v.Results) {
			fmt.Fprintf(w, "Please enter a number between 0 and %d: ", len(v.Results))
			continue
		}
		if n == 0 {
			return 0, false, nil
		}
		return n - 1, true, nil
	}
	if err := sc.Err(); err != nil {
		return 0, false, err
	}
	return 0, false, io.ErrUnexpectedEOF
}

// FormatEdits renders D' as boxed differences from D, the way the paper
// displays modified databases (Example 1.1 shows only Bob's changed salary).
func FormatEdits(base *db.Database, edits []db.CellEdit) string {
	var b strings.Builder
	for _, e := range edits {
		t := base.Table(e.Table)
		old := "?"
		if t != nil {
			if ci := t.Schema.IndexOf(e.Column); ci >= 0 && e.Row < t.Len() {
				old = t.Tuples[e.Row][ci].String()
			}
		}
		fmt.Fprintf(&b, "  %s row %d: %s = [%s]  (was %s)\n", e.Table, e.Row+1, e.Column, e.Value, old)
	}
	if len(edits) == 0 {
		b.WriteString("  (no changes)\n")
	}
	return b.String()
}

// FormatResultDelta renders Rᵢ as a minimal edit script against R — the
// Δ(D, Rᵢ) presentation that reduces the user's reading effort (§2).
func FormatResultDelta(base, ri *relation.Relation) string {
	ops, cost := editdist.Script(base, ri)
	if cost == 0 {
		return "  (identical to your original result)\n"
	}
	var b strings.Builder
	for _, op := range ops {
		switch op.Kind {
		case editdist.OpModify:
			fmt.Fprintf(&b, "  ~ row %d: %s %s -> %s\n",
				op.RowA+1, base.Schema[op.Col].Name, op.From, op.To)
		case editdist.OpDelete:
			fmt.Fprintf(&b, "  - row %d: %s\n", op.RowA+1, base.Tuples[op.RowA])
		case editdist.OpInsert:
			fmt.Fprintf(&b, "  + %s\n", ri.Tuples[op.RowB])
		}
	}
	return b.String()
}
