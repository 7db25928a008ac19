package plan

import (
	"strconv"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/query"
)

// fpBlock builds a two-relation block with a parameterizable local
// predicate — the minimal shape that exercises relations, clauses, and
// predicate folding.
func fpBlock(name, table string, pred query.Predicate) *query.Block {
	return &query.Block{
		Name: name,
		Relations: []query.Relation{
			{Alias: "o", Table: &catalog.Table{Name: "orders"}},
			{Alias: "l", Table: &catalog.Table{Name: table}, Pred: pred},
		},
		Clauses: []query.JoinClause{
			{LeftRel: 0, LeftCol: "o_orderkey", RightRel: 1, RightCol: "l_orderkey"},
		},
	}
}

func fpPlan(mode string, blooms int) *Plan {
	inner := &Scan{Rel: 1}
	for i := 0; i < blooms; i++ {
		inner.ApplyBlooms = append(inner.ApplyBlooms, i)
	}
	return &Plan{
		Mode: mode,
		Root: &Join{
			Conds: []Cond{{OuterRel: 0, OuterCol: "o_orderkey", InnerRel: 1, InnerCol: "l_orderkey"}},
			Outer: &Scan{Rel: 0},
			Inner: inner,
		},
	}
}

// TestFingerprintParameterizesLiterals: the same shape with different
// constant bindings must collide — that is the plan-cache key contract.
func TestFingerprintParameterizesLiterals(t *testing.T) {
	p := fpPlan("bfcbo", 1)
	cases := []struct{ a, b query.Predicate }{
		{query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100},
			query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 9999}},
		{query.CmpFloat{Col: "l_discount", Op: query.GE, Val: 0.05},
			query.CmpFloat{Col: "l_discount", Op: query.GE, Val: 0.07}},
		{query.BetweenInt{Col: "l_shipdate", Lo: 1, Hi: 2},
			query.BetweenInt{Col: "l_shipdate", Lo: 7, Hi: 9}},
		{query.InInt{Col: "l_linenumber", Vals: []int64{1, 2}},
			query.InInt{Col: "l_linenumber", Vals: []int64{3, 4}}},
		{query.StrEq{Col: "l_shipmode", Val: "MAIL"},
			query.StrEq{Col: "l_shipmode", Val: "SHIP"}},
		{query.StrIn{Col: "l_shipmode", Vals: []string{"MAIL", "SHIP"}},
			query.StrIn{Col: "l_shipmode", Vals: []string{"AIR", "RAIL"}}},
		{query.Not{P: query.StrEq{Col: "l_shipmode", Val: "MAIL"}},
			query.Not{P: query.StrEq{Col: "l_shipmode", Val: "AIR"}}},
		{query.And{Ps: []query.Predicate{query.StrEq{Col: "a", Val: "x"}, query.CmpInt{Col: "b", Op: query.LT, Val: 1}}},
			query.And{Ps: []query.Predicate{query.StrEq{Col: "a", Val: "y"}, query.CmpInt{Col: "b", Op: query.LT, Val: 2}}}},
	}
	for i, c := range cases {
		fa := Fingerprint(fpBlock("qa", "lineitem", c.a), p)
		fb := Fingerprint(fpBlock("qb", "lineitem", c.b), p)
		if fa != fb {
			t.Errorf("case %d: literal change altered the fingerprint: %s vs %s (%v vs %v)",
				i, FingerprintHex(fa), FingerprintHex(fb), c.a, c.b)
		}
	}
	// The block's display name must not contribute either (checked above by
	// using different names, but make it explicit).
	pa := query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100}
	if Fingerprint(fpBlock("first", "lineitem", pa), p) != Fingerprint(fpBlock("second", "lineitem", pa), p) {
		t.Error("block name leaked into the fingerprint")
	}
}

// TestFingerprintSeparatesShapes: structural differences — table set,
// predicate form, IN-list length, join condition, plan tree, optimizer
// mode — must hash apart.
func TestFingerprintSeparatesShapes(t *testing.T) {
	base := func() uint64 {
		return Fingerprint(fpBlock("q", "lineitem",
			query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100}), fpPlan("bfcbo", 1))
	}
	variants := map[string]uint64{
		"different table": Fingerprint(fpBlock("q", "partsupp",
			query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100}), fpPlan("bfcbo", 1)),
		"different column": Fingerprint(fpBlock("q", "lineitem",
			query.CmpInt{Col: "l_commitdate", Op: query.LT, Val: 100}), fpPlan("bfcbo", 1)),
		"different operator": Fingerprint(fpBlock("q", "lineitem",
			query.CmpInt{Col: "l_shipdate", Op: query.GE, Val: 100}), fpPlan("bfcbo", 1)),
		"different predicate type": Fingerprint(fpBlock("q", "lineitem",
			query.BetweenInt{Col: "l_shipdate", Lo: 0, Hi: 100}), fpPlan("bfcbo", 1)),
		"no predicate": Fingerprint(fpBlock("q", "lineitem", nil), fpPlan("bfcbo", 1)),
		"different mode": Fingerprint(fpBlock("q", "lineitem",
			query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100}), fpPlan("bfpost", 1)),
		"different bloom count": Fingerprint(fpBlock("q", "lineitem",
			query.CmpInt{Col: "l_shipdate", Op: query.LT, Val: 100}), fpPlan("bfcbo", 2)),
	}
	b := base()
	seen := map[uint64]string{b: "base"}
	for name, fp := range variants {
		if fp == b {
			t.Errorf("%s: fingerprint collides with base %s", name, FingerprintHex(b))
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s collide on %s", name, prev, FingerprintHex(fp))
		}
		seen[fp] = name
	}
	// IN-list length is part of the shape: a 2-element and a 3-element IN
	// are different keys to a cost model.
	in2 := Fingerprint(fpBlock("q", "lineitem",
		query.InInt{Col: "l_shipdate", Vals: []int64{1, 2}}), fpPlan("bfcbo", 1))
	in3 := Fingerprint(fpBlock("q", "lineitem",
		query.InInt{Col: "l_shipdate", Vals: []int64{1, 2, 3}}), fpPlan("bfcbo", 1))
	if in2 == in3 {
		t.Error("IN-list length not part of the fingerprint")
	}
	// The join type is part of the shape, and so is the side a semi join
	// builds: the same join with its preserve side building is another plan,
	// with other costs.
	join := func(jt query.JoinType, buildPreserved bool) uint64 {
		p := fpPlan("bfcbo", 1)
		j := p.Root.(*Join)
		j.JoinType, j.BuildPreserved = jt, buildPreserved
		return Fingerprint(fpBlock("q", "lineitem", nil), p)
	}
	types := map[uint64]query.JoinType{}
	for _, jt := range []query.JoinType{query.Inner, query.Semi, query.Anti, query.Left} {
		fp := join(jt, false)
		if prev, dup := types[fp]; dup {
			t.Errorf("join types %s and %s collide on %s", prev, jt, FingerprintHex(fp))
		}
		types[fp] = jt
	}
	if join(query.Semi, false) == join(query.Semi, true) {
		t.Error("the build side of a semi join is not part of the fingerprint")
	}
	// Stability: the same inputs always produce the same fingerprint.
	if base() != b {
		t.Error("fingerprint is not deterministic")
	}
}

// TestFingerprintHexRoundTrip covers the formatting used by HTTP
// endpoints and pprof labels.
func TestFingerprintHexRoundTrip(t *testing.T) {
	for _, v := range []uint64{1, 0xdeadbeef, 1<<64 - 1, 0x0123456789abcdef} {
		h := FingerprintHex(v)
		if len(h) != 16 {
			t.Fatalf("FingerprintHex(%#x) = %q, want 16 digits", v, h)
		}
		if got, err := strconv.ParseUint(h, 16, 64); err != nil || got != v {
			t.Fatalf("round trip %#x -> %q -> %#x (%v)", v, h, got, err)
		}
	}
	if Fingerprint(fpBlock("q", "lineitem", nil), fpPlan("bfcbo", 0)) == 0 {
		t.Error("Fingerprint must never return the 0 sentinel")
	}
}
