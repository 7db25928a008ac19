package query

import (
	"strings"
	"testing"
	"testing/quick"

	"bfcbo/internal/catalog"
	"bfcbo/internal/storage"
)

func TestRelSetOps(t *testing.T) {
	s := NewRelSet(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Fatalf("membership wrong for %s", s)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.Minus(NewRelSet(2)); got != NewRelSet(0, 5) {
		t.Fatalf("Minus = %s", got)
	}
	if !NewRelSet(2).SubsetOf(s) || s.SubsetOf(NewRelSet(2)) {
		t.Fatal("SubsetOf wrong")
	}
	if !s.Overlaps(NewRelSet(5, 9)) || s.Overlaps(NewRelSet(1, 3)) {
		t.Fatal("Overlaps wrong")
	}
	if !NewRelSet(4).Single() || s.Single() || RelSet(0).Single() {
		t.Fatal("Single wrong")
	}
	if s.String() != "{0,2,5}" {
		t.Fatalf("String = %q", s.String())
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 2 || m[2] != 5 {
		t.Fatalf("Members = %v", m)
	}
}

func TestQuickRelSetAlgebra(t *testing.T) {
	prop := func(a, b uint64) bool {
		x, y := RelSet(a), RelSet(b)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if (x & y).Count() > x.Count() {
			return false
		}
		if !(x & y).SubsetOf(x) {
			return false
		}
		if x.Minus(y).Overlaps(y) {
			return false
		}
		return x.Minus(y).Union(x&y) == x
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func predTable(t *testing.T) *storage.Table {
	t.Helper()
	tb, err := storage.NewTable("t", []storage.Column{
		{Name: "a", Kind: catalog.Int64, Ints: []int64{1, 5, 10, 5}},
		{Name: "b", Kind: catalog.Int64, Ints: []int64{2, 4, 10, 9}},
		{Name: "f", Kind: catalog.Float64, Floats: []float64{0.1, 0.5, 0.9, 0.5}},
		storage.StringColumn("s", []string{"AIR", "MAIL", "SHIP", "special AIR packages"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func evalAll(tb *storage.Table, p Predicate) []bool {
	out := make([]bool, tb.NumRows())
	for i := range out {
		out[i] = p.Eval(tb, i)
	}
	return out
}

func eqBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPredicates(t *testing.T) {
	tb := predTable(t)
	cases := []struct {
		p    Predicate
		want []bool
	}{
		{CmpInt{Col: "a", Op: EQ, Val: 5}, []bool{false, true, false, true}},
		{CmpInt{Col: "a", Op: NE, Val: 5}, []bool{true, false, true, false}},
		{CmpInt{Col: "a", Op: LT, Val: 5}, []bool{true, false, false, false}},
		{CmpInt{Col: "a", Op: LE, Val: 5}, []bool{true, true, false, true}},
		{CmpInt{Col: "a", Op: GT, Val: 5}, []bool{false, false, true, false}},
		{CmpInt{Col: "a", Op: GE, Val: 5}, []bool{false, true, true, true}},
		{CmpFloat{Col: "f", Op: LT, Val: 0.5}, []bool{true, false, false, false}},
		{CmpFloat{Col: "f", Op: GE, Val: 0.5}, []bool{false, true, true, true}},
		{CmpCols{Col1: "a", Op: LT, Col2: "b"}, []bool{true, false, false, true}},
		{CmpCols{Col1: "a", Op: EQ, Col2: "b"}, []bool{false, false, true, false}},
		{BetweenInt{Col: "a", Lo: 2, Hi: 9}, []bool{false, true, false, true}},
		{BetweenFloat{Col: "f", Lo: 0.4, Hi: 0.6}, []bool{false, true, false, true}},
		{InInt{Col: "a", Vals: []int64{1, 10}}, []bool{true, false, true, false}},
		{StrEq{Col: "s", Val: "MAIL"}, []bool{false, true, false, false}},
		{StrNE{Col: "s", Val: "MAIL"}, []bool{true, false, true, true}},
		{StrIn{Col: "s", Vals: []string{"AIR", "SHIP"}}, []bool{true, false, true, false}},
		{StrPrefix{Col: "s", Prefix: "special"}, []bool{false, false, false, true}},
		{StrContains{Col: "s", Subs: []string{"AIR", "pack"}}, []bool{false, false, false, true}},
		{Not{CmpInt{Col: "a", Op: EQ, Val: 5}}, []bool{true, false, true, false}},
		{And{[]Predicate{CmpInt{Col: "a", Op: GE, Val: 5}, StrEq{Col: "s", Val: "SHIP"}}}, []bool{false, false, true, false}},
		{Or{[]Predicate{CmpInt{Col: "a", Op: EQ, Val: 1}, StrEq{Col: "s", Val: "SHIP"}}}, []bool{true, false, true, false}},
	}
	for _, c := range cases {
		if got := evalAll(tb, c.p); !eqBools(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.p, got, c.want)
		}
	}
}

func TestStrContainsOrdered(t *testing.T) {
	tb, _ := storage.NewTable("t", []storage.Column{
		storage.StringColumn("s", []string{"b then a", "a then b"}),
	})
	p := StrContains{Col: "s", Subs: []string{"a", "b"}}
	if p.Eval(tb, 0) {
		t.Fatal("out-of-order substrings should not match")
	}
	if !p.Eval(tb, 1) {
		t.Fatal("in-order substrings should match")
	}
}

func TestPredicateStrings(t *testing.T) {
	for _, c := range []struct {
		p    Predicate
		want string
	}{
		{CmpInt{Col: "a", Op: GE, Val: 3}, "a >= 3"},
		{StrEq{Col: "s", Val: "X"}, "s = 'X'"},
		{And{[]Predicate{CmpInt{Col: "a", Op: EQ, Val: 1}, CmpInt{Col: "b", Op: EQ, Val: 2}}}, "(a = 1) and (b = 2)"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if EQ.String() != "=" || NE.String() != "<>" || LT.String() != "<" ||
		LE.String() != "<=" || GT.String() != ">" || GE.String() != ">=" {
		t.Fatal("CmpOp strings wrong")
	}
}

func twoTableBlock(t *testing.T) *Block {
	t.Helper()
	a := catalog.NewTable("a", 100, []catalog.Column{{Name: "id", Type: catalog.Int64}, {Name: "x", Type: catalog.Int64}})
	b := catalog.NewTable("b", 200, []catalog.Column{{Name: "aid", Type: catalog.Int64}})
	return &Block{
		Name:      "q",
		Relations: []Relation{{Alias: "a", Table: a}, {Alias: "b", Table: b}},
		Clauses:   []JoinClause{{Type: Inner, LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid"}},
	}
}

func TestBlockValidateOK(t *testing.T) {
	b := twoTableBlock(t)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.AllRels() != NewRelSet(0, 1) {
		t.Fatalf("AllRels = %s", b.AllRels())
	}
	if b.RelIndex("b") != 1 || b.RelIndex("zzz") != -1 {
		t.Fatal("RelIndex wrong")
	}
	if !strings.Contains(b.String(), "inner") {
		t.Fatalf("String missing clause: %s", b.String())
	}
}

func TestBlockValidateErrors(t *testing.T) {
	a := catalog.NewTable("a", 1, []catalog.Column{{Name: "id", Type: catalog.Int64}, {Name: "str", Type: catalog.String}})
	b := catalog.NewTable("b", 1, []catalog.Column{{Name: "aid", Type: catalog.Int64}})

	cases := []struct {
		name  string
		block *Block
	}{
		{"empty", &Block{Name: "e"}},
		{"dup alias", &Block{Name: "d", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "x", Table: b}},
			Clauses: []JoinClause{{LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid"}}}},
		{"nil table", &Block{Name: "n", Relations: []Relation{{Alias: "x"}}}},
		{"missing col", &Block{Name: "m", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{LeftRel: 0, LeftCol: "ghost", RightRel: 1, RightCol: "aid"}}}},
		{"string join col", &Block{Name: "s", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{LeftRel: 0, LeftCol: "str", RightRel: 1, RightCol: "aid"}}}},
		{"self join clause", &Block{Name: "sj", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{LeftRel: 0, LeftCol: "id", RightRel: 0, RightCol: "id"},
				{LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid"}}}},
		{"disconnected", &Block{Name: "dc", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}}}},
		{"semi missing subrels", &Block{Name: "sm", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{Type: Semi, LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid"}}}},
		{"inner with subrels", &Block{Name: "is", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{Type: Inner, LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid", SubRels: NewRelSet(1)}}}},
		{"semi subrels include left", &Block{Name: "sl", Relations: []Relation{{Alias: "x", Table: a}, {Alias: "y", Table: b}},
			Clauses: []JoinClause{{Type: Semi, LeftRel: 0, LeftCol: "id", RightRel: 1, RightCol: "aid", SubRels: NewRelSet(0, 1)}}}},
	}
	for _, c := range cases {
		if err := c.block.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func chainBlock(t *testing.T, n int) *Block {
	t.Helper()
	b := &Block{Name: "chain"}
	for i := 0; i < n; i++ {
		tb := catalog.NewTable("t"+string(rune('0'+i)), 10, []catalog.Column{
			{Name: "k", Type: catalog.Int64}, {Name: "fk", Type: catalog.Int64}})
		b.Relations = append(b.Relations, Relation{Alias: tb.Name, Table: tb})
		if i > 0 {
			b.Clauses = append(b.Clauses, JoinClause{Type: Inner, LeftRel: i - 1, LeftCol: "fk", RightRel: i, RightCol: "k"})
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAddTransitiveClauses(t *testing.T) {
	mk := func(name string) *catalog.Table {
		return catalog.NewTable(name, 10, []catalog.Column{{Name: "k", Type: catalog.Int64}})
	}
	b := &Block{
		Name: "tc",
		Relations: []Relation{
			{Alias: "s", Table: mk("s")}, {Alias: "l", Table: mk("l")}, {Alias: "ps", Table: mk("ps")},
		},
		Clauses: []JoinClause{
			{Type: Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"},
			{Type: Inner, LeftRel: 2, LeftCol: "k", RightRel: 1, RightCol: "k"},
		},
	}
	b.AddTransitiveClauses()
	if len(b.Clauses) != 3 {
		t.Fatalf("expected 1 derived clause, clauses = %+v", b.Clauses)
	}
	d := b.Clauses[2]
	if !d.Derived {
		t.Fatal("derived clause not marked")
	}
	// Canonical orientation: the lower (relation, column) endpoint is left.
	if d.LeftRel != 0 || d.RightRel != 2 {
		t.Fatalf("derived clause is %s, want [0].k inner= [2].k", d)
	}
	// Idempotent: running again adds nothing.
	b.AddTransitiveClauses()
	if len(b.Clauses) != 3 {
		t.Fatalf("closure not idempotent: %d clauses", len(b.Clauses))
	}
}

func TestJoinTypeStrings(t *testing.T) {
	if Inner.String() != "inner" || Semi.String() != "semi" || Anti.String() != "anti" || Left.String() != "left" {
		t.Fatal("JoinType strings wrong")
	}
}
