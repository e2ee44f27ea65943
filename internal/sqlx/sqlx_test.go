package sqlx

import (
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/relation"
)

func mustParse(t *testing.T, src string) *algebra.Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseBasicSelect(t *testing.T) {
	q := mustParse(t, "SELECT Employee.name FROM Employee WHERE Employee.gender = 'M'")
	if len(q.Tables) != 1 || q.Tables[0] != "Employee" {
		t.Errorf("tables = %v", q.Tables)
	}
	if len(q.Projection) != 1 || q.Projection[0] != "Employee.name" {
		t.Errorf("projection = %v", q.Projection)
	}
	if len(q.Pred) != 1 || len(q.Pred[0]) != 1 {
		t.Fatalf("pred = %v", q.Pred)
	}
	term := q.Pred[0][0]
	if term.Attr != "Employee.gender" || term.Op != algebra.OpEQ || !term.Const.Equal(relation.Str("M")) {
		t.Errorf("term = %v", term)
	}
}

func TestParseDistinctStarAndJoins(t *testing.T) {
	q := mustParse(t, "select distinct * from A join B, C")
	if !q.Distinct {
		t.Error("DISTINCT not recognised (case-insensitive)")
	}
	if len(q.Projection) != 0 {
		t.Error("* should produce empty projection")
	}
	if len(q.Tables) != 3 {
		t.Errorf("tables = %v", q.Tables)
	}
}

func TestParseOperators(t *testing.T) {
	q := mustParse(t, "SELECT a FROM T WHERE a=1 AND b<>2 AND c<3 AND d<=4 AND e>5 AND f>=6 AND g != 7")
	if len(q.Pred) != 1 {
		t.Fatalf("pred = %v", q.Pred)
	}
	ops := []algebra.Op{algebra.OpEQ, algebra.OpNE, algebra.OpLT, algebra.OpLE,
		algebra.OpGT, algebra.OpGE, algebra.OpNE}
	if len(q.Pred[0]) != len(ops) {
		t.Fatalf("conjunct size = %d", len(q.Pred[0]))
	}
	for i, op := range ops {
		if q.Pred[0][i].Op != op {
			t.Errorf("term %d op = %v, want %v", i, q.Pred[0][i].Op, op)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q := mustParse(t, "SELECT a FROM T WHERE a = -3 AND b = 2.5 AND c = 'it''s' AND d = TRUE AND e = FALSE")
	c := q.Pred[0]
	if !c[0].Const.Equal(relation.Int(-3)) {
		t.Errorf("int literal = %v", c[0].Const)
	}
	if !c[1].Const.Equal(relation.Float(2.5)) {
		t.Errorf("float literal = %v", c[1].Const)
	}
	if !c[2].Const.Equal(relation.Str("it's")) {
		t.Errorf("string literal with escaped quote = %v", c[2].Const)
	}
	if !c[3].Const.Equal(relation.Bool(true)) || !c[4].Const.Equal(relation.Bool(false)) {
		t.Error("bool literals broken")
	}
}

func TestParseInAndNotIn(t *testing.T) {
	q := mustParse(t, "SELECT a FROM T WHERE x IN ('a','b') AND y NOT IN (1, 2)")
	c := q.Pred[0]
	if c[0].Op != algebra.OpIn || len(c[0].Set) != 2 {
		t.Errorf("IN term = %v", c[0])
	}
	if c[1].Op != algebra.OpNotIn || len(c[1].Set) != 2 {
		t.Errorf("NOT IN term = %v", c[1])
	}
}

func TestParseDNFConversion(t *testing.T) {
	// (a=1 OR b=2) AND c=3  ->  (a=1 AND c=3) OR (b=2 AND c=3)
	q := mustParse(t, "SELECT x FROM T WHERE (a=1 OR b=2) AND c=3")
	if len(q.Pred) != 2 {
		t.Fatalf("DNF should have 2 conjuncts, got %d: %v", len(q.Pred), q.Pred)
	}
	for _, conj := range q.Pred {
		if len(conj) != 2 {
			t.Errorf("conjunct = %v, want 2 terms", conj)
		}
		last := conj[len(conj)-1]
		if last.Attr != "c" || !last.Const.Equal(relation.Int(3)) {
			t.Errorf("c=3 should distribute into %v", conj)
		}
	}
}

func TestParseNotPushdown(t *testing.T) {
	// NOT (a < 1 OR b = 2) -> a >= 1 AND b <> 2
	q := mustParse(t, "SELECT x FROM T WHERE NOT (a < 1 OR b = 2)")
	if len(q.Pred) != 1 || len(q.Pred[0]) != 2 {
		t.Fatalf("pred = %v", q.Pred)
	}
	if q.Pred[0][0].Op != algebra.OpGE {
		t.Errorf("NOT(<) should become >=, got %v", q.Pred[0][0].Op)
	}
	if q.Pred[0][1].Op != algebra.OpNE {
		t.Errorf("NOT(=) should become <>, got %v", q.Pred[0][1].Op)
	}
	// Double negation cancels.
	q2 := mustParse(t, "SELECT x FROM T WHERE NOT NOT a = 1")
	if q2.Pred[0][0].Op != algebra.OpEQ {
		t.Error("double negation should cancel")
	}
	// NOT IN via negation of IN.
	q3 := mustParse(t, "SELECT x FROM T WHERE NOT x IN (1)")
	if q3.Pred[0][0].Op != algebra.OpNotIn {
		t.Errorf("NOT (x IN) = %v", q3.Pred[0][0].Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM T WHERE",
		"SELECT a FROM T WHERE a",
		"SELECT a FROM T WHERE a = ",
		"SELECT a FROM T WHERE a = 'unterminated",
		"SELECT a FROM T WHERE (a = 1",
		"SELECT a FROM T WHERE a IN 1",
		"SELECT a FROM T WHERE a IN (1",
		"SELECT a FROM T trailing junk",
		"SELECT a. FROM T",
		"SELECT a FROM T WHERE a @ 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRoundTripThroughSQL(t *testing.T) {
	srcs := []string{
		"SELECT A.x FROM A WHERE A.x > 1",
		"SELECT A.x, B.y FROM A JOIN B WHERE (A.x <= 5 AND B.y = 'z') OR (A.x > 10)",
		"SELECT DISTINCT A.x FROM A WHERE A.s IN ('p', 'q')",
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		q2 := mustParse(t, q1.SQL())
		if q1.Key() != q2.Key() {
			t.Errorf("round trip changed query:\n  src:  %s\n  sql1: %s\n  sql2: %s",
				src, q1.SQL(), q2.SQL())
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := (&lexer{src: "SELECT x, y FROM t WHERE a <= 1.5e3 AND b = 'o''k'"}).all()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("token stream must end with EOF")
	}
	// Spot-check: string contents unescaped.
	found := false
	for _, tok := range toks {
		if tok.kind == tokString && tok.text == "o'k" {
			found = true
		}
	}
	if !found {
		t.Error("escaped quote not handled in lexer")
	}
	if _, err := (&lexer{src: "a ; b"}).all(); err == nil {
		t.Error("lexer should reject unknown characters")
	}
	if !strings.Contains(err1(t).Error(), "position") {
		t.Error("lex errors should carry position")
	}
}

func err1(t *testing.T) error {
	t.Helper()
	_, err := (&lexer{src: "'open"}).all()
	if err == nil {
		t.Fatal("want error")
	}
	return err
}
