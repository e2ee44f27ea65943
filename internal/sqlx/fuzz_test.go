package sqlx

import (
	"strings"
	"testing"

	"qfe/internal/datasets"
)

// seedCorpus returns the SQL renderings of the paper's reference queries —
// the scientific Q1/Q2, the baseball Q3–Q6, the adult-census targets — plus
// Example 1.1 and grammar corner cases (DNF, NOT, IN, literals of every
// kind).
func seedCorpus() []string {
	seeds := []string{
		// Example 1.1 (the three candidate queries of the paper's Figure 1).
		"SELECT name FROM Employee WHERE gender = 'M'",
		"SELECT name FROM Employee WHERE salary > 4000",
		"SELECT name FROM Employee WHERE dept = 'IT'",
		// Grammar corners.
		"SELECT * FROM t",
		"SELECT DISTINCT a.b, c FROM t JOIN u WHERE NOT (a.b < 3 OR c IN ('x', 'y''z'))",
		"SELECT a FROM t WHERE x = TRUE AND y = FALSE OR z = NULL",
		"SELECT a FROM t WHERE f <> -1.5e-3 AND g >= +7",
		"SELECT a FROM t, u, v WHERE t.a NOT IN (1, 2, 3)",
		"select a from t where (((x = 1)))",
	}
	sci := datasets.NewScientific()
	seeds = append(seeds, sci.Q1.SQL(), sci.Q2.SQL())
	bb := datasets.NewBaseball()
	seeds = append(seeds, bb.Q3.SQL(), bb.Q4.SQL(), bb.Q5.SQL(), bb.Q6.SQL())
	for _, q := range datasets.NewAdult().Targets {
		seeds = append(seeds, q.SQL())
	}
	return seeds
}

// FuzzParse asserts the parser's two safety properties on arbitrary input:
//
//  1. Parse never panics (it returns an error for anything it rejects,
//     including pathological nesting and exponential DNF blow-ups);
//  2. any accepted query round-trips: rendering it with Query.SQL and
//     parsing again yields a query with an identical canonical Key — the
//     encoding candidate dedup keys on.
//
// Run long with: go test -fuzz=FuzzParse ./internal/sqlx
func FuzzParse(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		key := q.Key()
		sql := q.SQL()
		q2, err := Parse(sql)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", src, sql, err)
		}
		if q2.Key() != key {
			t.Fatalf("round-trip changed the query\ninput:    %q\nrendered: %q\nkey before: %q\nkey after:  %q",
				src, sql, key, q2.Key())
		}
	})
}

// TestSeedCorpusRoundTrips runs the fuzz property over the seed corpus in a
// plain test, so the invariant is checked on every `go test` run, not only
// under -fuzz.
func TestSeedCorpusRoundTrips(t *testing.T) {
	for _, src := range seedCorpus() {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("seed %q does not parse: %v", src, err)
			continue
		}
		q2, err := Parse(q.SQL())
		if err != nil {
			t.Errorf("seed %q: rendering %q does not re-parse: %v", src, q.SQL(), err)
			continue
		}
		if q2.Key() != q.Key() {
			t.Errorf("seed %q: round-trip changed key", src)
		}
	}
}

// TestParserResourceGuards pins the hardening limits the fuzzer relies on.
func TestParserResourceGuards(t *testing.T) {
	// Deep parenthesis nesting must be rejected, not overflow the stack.
	deep := "SELECT a FROM t WHERE " + strings.Repeat("(", 100000) + "x = 1"
	if _, err := Parse(deep); err == nil {
		t.Error("deep nesting should be rejected")
	}
	// NOT chains likewise.
	nots := "SELECT a FROM t WHERE " + strings.Repeat("NOT ", 100000) + "x = 1"
	if _, err := Parse(nots); err == nil {
		t.Error("deep NOT chain should be rejected")
	}
	// Exponential DNF must be rejected before materialisation.
	blowup := "SELECT a FROM t WHERE (x = 1 OR x = 2)" +
		strings.Repeat(" AND (x = 1 OR x = 2)", 40)
	if _, err := Parse(blowup); err == nil {
		t.Error("2^41-conjunct DNF should be rejected")
	}
	// Term-count blow-up under the conjunct cap: a long AND chain times a
	// 4096-way OR would copy the chain into every conjunct.
	// 2000 AND terms × a 40-way OR = 80040 materialised terms in only 40
	// conjuncts — over the term cap while far under the conjunct cap.
	wide := "SELECT a FROM t WHERE " + strings.Repeat("z = 0 AND ", 2000) +
		"(x = 1" + strings.Repeat(" OR x = 2", 39) + ")"
	if _, err := Parse(wide); err == nil {
		t.Error("term blow-up should be rejected")
	}
	// Within the limits, both shapes still parse.
	if _, err := Parse("SELECT a FROM t WHERE NOT NOT ((x = 1 OR x = 2) AND (y = 1 OR y = 2))"); err != nil {
		t.Errorf("moderate nesting should parse: %v", err)
	}
}
