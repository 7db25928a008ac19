package optimizer

import (
	"math"
	"slices"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// Two pending filters built from the same column and applied to columns
// the joined set equates enter its rows once; filters that differ in any
// of that enter each.
func TestImpliedFiltersEnterOnce(t *testing.T) {
	cand := func(id, apply int, applyCol string, buildCol string) *candidate {
		return &candidate{id: id, applyRel: apply, applyCol: applyCol, buildRel: 0, buildCol: buildCol, equated: true}
	}
	onL, onPS := cand(0, 1, "l_partkey", "p_partkey"), cand(1, 2, "ps_partkey", "p_partkey")
	p, pl := query.NewRelSet(0), query.NewRelSet(0, 3)
	// Each case's candidates are marked as markCandidates marks a block's.
	counted := func(pending []pendingBF) []bool {
		cands := make([]*candidate, len(pending))
		for i, pf := range pending {
			cands[i] = pf.cand
		}
		markImpliable(cands)
		out := make([]bool, len(pending))
		for i := range pending {
			out[i] = !implied(pending, i)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		pending []pendingBF
		want    []bool
	}{
		{"same δ: the smaller factor counts", []pendingBF{{cand: onL, delta: p, factor: 0.2}, {cand: onPS, delta: p, factor: 0.1}}, []bool{false, true}},
		{"same δ and factor: the first counts", []pendingBF{{cand: onL, delta: p, factor: 0.1}, {cand: onPS, delta: p, factor: 0.1}}, []bool{true, false}},
		{"a larger δ implies a smaller one", []pendingBF{{cand: onL, delta: pl, factor: 0.3}, {cand: onPS, delta: p, factor: 0.1}}, []bool{true, false}},
		{"δs neither holding the other", []pendingBF{{cand: onL, delta: query.NewRelSet(0, 4), factor: 0.1}, {cand: onPS, delta: pl, factor: 0.1}}, []bool{true, true}},
		{"another build column", []pendingBF{{cand: onL, delta: p, factor: 0.1}, {cand: cand(1, 2, "ps_partkey", "p_size"), delta: p, factor: 0.1}}, []bool{true, true}},
		{"one apply relation", []pendingBF{{cand: onL, delta: p, factor: 0.1}, {cand: cand(1, 1, "l_suppkey", "p_partkey"), delta: p, factor: 0.1}}, []bool{true, true}},
		{"not equated", []pendingBF{{cand: onL, delta: p, factor: 0.1}, {cand: &candidate{id: 1, applyRel: 2, applyCol: "x", buildCol: "p_partkey"}, delta: p, factor: 0.1}}, []bool{true, true}},
	} {
		if got := counted(c.pending); !slices.Equal(got, c.want) {
			t.Errorf("%s: counted %v, want %v", c.name, got, c.want)
		}
	}

	// A candidate marked among candidates none of which could imply it is
	// counted even beside one that would.
	lone := cand(0, 1, "l_partkey", "p_partkey")
	markImpliable([]*candidate{lone})
	if lone.impliable {
		t.Fatal("a candidate marked alone is impliable")
	}
	if implied([]pendingBF{{cand: lone, delta: p, factor: 0.2}, {cand: onPS, delta: p, factor: 0.1}}, 0) {
		t.Error("implied holds for a candidate not marked impliable")
	}
}

// Q9's lineitem ⋈ partsupp node under BF-CBO, with the two filters built
// from p_partkey (one on l_partkey, one on ps_partkey): its estimate is
// JoinCard({l, ps}) — |lineitem|, through the composite foreign key —
// times one of the filters' factors, and it lies within 2x of the rows the
// node produces. The block is Q9's p, l and ps, so that the node can be
// run under a join with p that builds both filters.
func TestQ9LineitemPartsuppEstimate(t *testing.T) {
	const sf = 0.02
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := tpch.Get(9)
	q9 := q.Build(ds.Schema)
	b := &query.Block{Name: "q9_p_l_ps",
		Relations: []query.Relation{q9.Relations[0], q9.Relations[2], q9.Relations[3]},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 2, LeftCol: "ps_suppkey", RightRel: 1, RightCol: "l_suppkey"},
			{Type: query.Inner, LeftRel: 2, LeftCol: "ps_partkey", RightRel: 1, RightCol: "l_partkey"},
			{Type: query.Inner, LeftRel: 0, LeftCol: "p_partkey", RightRel: 1, RightCol: "l_partkey"},
		},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sf)
	opts.Mode = BFCBO
	o := newOptimizer(b, opts)
	o.markCandidates()
	o.phase1()
	o.applyHeuristic8()
	o.makeBasePlans(true, false)
	if err := o.enumerate(); err != nil {
		t.Fatal(err)
	}

	lps := query.NewRelSet(1, 2)
	var node *subPlan
	for _, sp := range o.lists[o.graph.ord(lps)].plans {
		if len(sp.pending) == 2 && sp.pending[0].delta == query.NewRelSet(0) && sp.pending[1].delta == query.NewRelSet(0) &&
			sp.pending[0].cand.buildCol == "p_partkey" && sp.pending[1].cand.buildCol == "p_partkey" {
			node = sp
		}
	}
	if node == nil {
		t.Fatal("no (l ps) sub-plan under both p_partkey filters")
	}
	card := o.est.JoinCard(lps)
	if once := card * math.Min(node.pending[0].factor, node.pending[1].factor); node.rows != once {
		t.Fatalf("(l ps) estimate %v, want JoinCard %v times one factor = %v", node.rows, card, once)
	}

	// Join the node with p's plain scan, which builds both filters.
	var scanP *subPlan
	for _, sp := range o.lists[0].plans {
		if s, ok := sp.node.(*plan.Scan); ok && len(s.ApplyBlooms) == 0 {
			scanP = sp
		}
	}
	pair := slices.IndexFunc(o.graph.pairs, func(p joinPair) bool {
		return o.graph.sets[p.outer] == lps && o.graph.sets[p.inner] == query.NewRelSet(0)
	})
	if scanP == nil || pair < 0 {
		t.Fatal("no plain scan of p, or no ((l ps) p) join pair")
	}
	root := &plan.Join{JoinType: query.Inner, Outer: node.node, Inner: scanP.node,
		Conds:       o.graph.pairConds(&o.graph.pairs[pair]),
		BuildBlooms: []int{node.pending[0].bloomID, node.pending[1].bloomID}}
	p := &plan.Plan{Root: root, Mode: BFCBO.String(), CostProfile: opts.Cost.Name}
	o.collectSpecs(p)
	res, err := exec.Run(ds.DB, b, p, exec.Options{DOP: 1})
	if err != nil {
		t.Fatalf("%v\n%s", err, p.Explain())
	}
	actual := res.ActualFor(node.node)
	t.Logf("SF %g: (l ps) estimated %.0f rows, produced %.0f", sf, node.rows, actual)
	if node.rows < actual/2 || node.rows > 2*actual {
		t.Fatalf("(l ps) estimated %.0f rows, produced %.0f: not within 2x", node.rows, actual)
	}
}
