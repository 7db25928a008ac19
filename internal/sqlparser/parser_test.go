package sqlparser

import (
	"strings"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/query"
)

func schema(t testing.TB) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.003, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// The statements under test are package-level so FuzzParse can seed its
// corpus with every one of them.
const (
	sqlSimpleJoin = `
		SELECT * FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey
		  AND l.l_shipmode IN ('MAIL', 'SHIP')
		  AND l.l_commitdate < l.l_receiptdate
		  AND l.l_receiptdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'`
	sqlQ12 = `
		SELECT * FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey
		  AND l.l_shipmode IN ('MAIL', 'SHIP')
		  AND l.l_commitdate < l.l_receiptdate
		  AND l.l_shipdate < l.l_commitdate
		  AND l.l_receiptdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'`
	sqlBareColumns = `
		SELECT s_name FROM supplier AS s, nation
		WHERE s_nationkey = n_nationkey AND n_name = 'GERMANY'`
	sqlOrGroup = `
		SELECT * FROM part WHERE (p_brand = 'Brand#12' OR p_brand = 'Brand#23') AND p_size < 20`
	sqlNot     = `SELECT * FROM part WHERE NOT p_type LIKE 'MEDIUM POLISHED%'`
	sqlNumeric = `
		SELECT * FROM lineitem WHERE l_quantity < 24 AND l_discount BETWEEN 0.05 AND 0.07`
	// l_orderkey exists only in lineitem, but joining lineitem twice makes
	// the bare name ambiguous.
	sqlAmbiguous = `
		SELECT * FROM lineitem l1, lineitem l2 WHERE l_orderkey = l2.l_orderkey`
)

var likeCases = []struct {
	sql  string
	want string // type name fragment
}{
	{`SELECT * FROM part WHERE p_name LIKE 'forest%'`, "StrPrefix"},
	{`SELECT * FROM part WHERE p_type LIKE '%BRASS%'`, "StrContains"},
	{`SELECT * FROM part WHERE p_container LIKE 'MED BOX'`, "StrEq"},
	{`SELECT * FROM part WHERE p_name LIKE 'a%b%'`, "And"},
}

var badStatements = []string{
	``,
	`SELECT *`,
	`SELECT * FROM nosuchtable`,
	`SELECT * FROM part WHERE nosuchcol = 1`,
	`SELECT * FROM part, supplier WHERE p_partkey < s_suppkey`,               // non-equi join
	`SELECT * FROM part WHERE p_name = 42`,                                   // type mismatch
	`SELECT * FROM part WHERE p_size = 'big'`,                                // type mismatch
	`SELECT * FROM part WHERE p_size LIKE 'x%'`,                              // LIKE on int
	`SELECT * FROM part WHERE p_size IN (1, 'two')`,                          // mixed IN
	`SELECT * FROM part WHERE p_name LIKE '%'`,                               // vacuous pattern
	`SELECT * FROM orders o, lineitem l WHERE o_orderkey = l_orderkey extra`, // trailing
	`SELECT * FROM part WHERE p_size BETWEEN 1 AND 'x'`,
	`SELECT * FROM part WHERE p_size = `,
	`SELECT * FROM part WHERE p_size = 1.5`,                                    // fractional vs int column
	`SELECT * FROM lineitem, part WHERE (l_partkey = p_partkey OR p_size = 1)`, // join in OR
	`SELECT * FROM part WHERE p_name = 'unterminated`,
	`SELECT * FROM part WHERE p_size ~ 3`,
	`SELECT * FROM orders WHERE o_orderdate = DATE 'not-a-date'`,
}

func TestParseSimpleJoin(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlSimpleJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Relations) != 2 || b.Relations[0].Alias != "o" || b.Relations[1].Alias != "l" {
		t.Fatalf("relations = %+v", b.Relations)
	}
	if len(b.Clauses) != 1 || b.Clauses[0].LeftCol != "o_orderkey" || b.Clauses[0].RightCol != "l_orderkey" {
		t.Fatalf("clauses = %+v", b.Clauses)
	}
	if b.Relations[0].Pred != nil {
		t.Fatalf("orders should have no local predicate, got %v", b.Relations[0].Pred)
	}
	and, ok := b.Relations[1].Pred.(query.And)
	if !ok || len(and.Ps) != 3 {
		t.Fatalf("lineitem predicate = %v", b.Relations[1].Pred)
	}
}

func TestParsedQueryMatchesProgrammaticQ12(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlQ12)
	if err != nil {
		t.Fatal(err)
	}
	opts := optimizer.DefaultOptions(ds.Config.ScaleFactor)
	res, err := optimizer.Optimize(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.Run(ds.DB, b, res.Plan, exec.Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows == 0 {
		t.Fatal("parsed Q12 returned no rows; expected some matches")
	}
	if res.Plan.CountBlooms() == 0 {
		t.Fatalf("parsed Q12 under BF-CBO should use a Bloom filter:\n%s", res.Plan.Explain())
	}
}

func TestParseBareColumnsAndAliases(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlBareColumns)
	if err != nil {
		t.Fatal(err)
	}
	if b.Relations[0].Alias != "s" || b.Relations[1].Alias != "nation" {
		t.Fatalf("aliases = %q, %q", b.Relations[0].Alias, b.Relations[1].Alias)
	}
	if len(b.Clauses) != 1 {
		t.Fatalf("clauses = %+v", b.Clauses)
	}
	if _, ok := b.Relations[1].Pred.(query.StrEq); !ok {
		t.Fatalf("nation pred = %#v", b.Relations[1].Pred)
	}
}

func TestParseLikeShapes(t *testing.T) {
	ds := schema(t)
	for _, c := range likeCases {
		b, err := Parse(ds.Schema, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got := typeName(b.Relations[0].Pred)
		if !strings.Contains(got, c.want) {
			t.Errorf("%s: pred type %s, want %s", c.sql, got, c.want)
		}
	}
}

func typeName(v interface{}) string {
	if v == nil {
		return "<nil>"
	}
	return strings.TrimPrefix(strings.TrimPrefix(
		strings.TrimPrefix(
			strings.TrimPrefix(typeOf(v), "query."), "*query."), "internal/"), "bfcbo/")
}

func typeOf(v interface{}) string {
	switch v.(type) {
	case query.StrPrefix:
		return "query.StrPrefix"
	case query.StrContains:
		return "query.StrContains"
	case query.StrEq:
		return "query.StrEq"
	case query.And:
		return "query.And"
	default:
		return "other"
	}
}

func TestParseOrGroup(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlOrGroup)
	if err != nil {
		t.Fatal(err)
	}
	and := b.Relations[0].Pred
	if _, ok := and.(query.And); !ok {
		t.Fatalf("expected And, got %#v", and)
	}
}

func TestParseNot(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlNot)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Relations[0].Pred.(query.Not); !ok {
		t.Fatalf("expected Not, got %#v", b.Relations[0].Pred)
	}
}

func TestParseNumericComparisons(t *testing.T) {
	ds := schema(t)
	b, err := Parse(ds.Schema, sqlNumeric)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := b.Relations[0].Pred.(query.And)
	if !ok || len(and.Ps) != 2 {
		t.Fatalf("pred = %#v", b.Relations[0].Pred)
	}
	if _, ok := and.Ps[0].(query.CmpFloat); !ok {
		t.Fatalf("quantity pred = %#v", and.Ps[0])
	}
	if _, ok := and.Ps[1].(query.BetweenFloat); !ok {
		t.Fatalf("discount pred = %#v", and.Ps[1])
	}
}

func TestParseErrors(t *testing.T) {
	ds := schema(t)
	for _, sql := range badStatements {
		if _, err := Parse(ds.Schema, sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	ds := schema(t)
	_, err := Parse(ds.Schema, sqlAmbiguous)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguity error, got %v", err)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`SELECT a, b FROM t WHERE x <= 10 AND y <> 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	var strLit string
	for _, tok := range toks {
		if tok.kind == tkString {
			strLit = tok.text
		}
	}
	if strLit != "it's" {
		t.Fatalf("escaped string = %q", strLit)
	}
	if _, err := lex(`SELECT ;`); err == nil {
		t.Fatal("expected lex error for ';'")
	}
}
