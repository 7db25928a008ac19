package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/query"
)

// H9 relaxes H1: candidates may sit on the smaller relation of a clause,
// but only δs whose build side is smaller than the apply side survive.
func TestHeuristic9BothSides(t *testing.T) {
	// big (1M, filtered to 1%) joins small (100k). Under H1 only `small`…
	// no: under H1 the candidate goes on the larger *estimated* side.
	// Construct it so the H9-only candidate is the interesting one: the
	// clause pair is (mid, big-filtered); H1 puts the BFC on mid (larger
	// after filters). H9 additionally allows one on big-filtered applied
	// from mid — but only for δs smaller than it.
	big := catalog.NewTable("big", 1e6, []catalog.Column{
		{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1e5, Min: 0, Max: 1e5}},
		{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 1000}},
	})
	mid := catalog.NewTable("mid", 2e5, []catalog.Column{
		{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1e5, Min: 0, Max: 1e5}},
		{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 1000}},
	})
	mkBlock := func() *query.Block {
		return &query.Block{
			Name: "h9",
			Relations: []query.Relation{
				{Alias: "big", Table: big, Pred: query.CmpInt{Col: "v", Op: query.LT, Val: 10}},
				{Alias: "mid", Table: mid, Pred: query.CmpInt{Col: "v", Op: query.LT, Val: 50}},
			},
			Clauses: []query.JoinClause{
				{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"},
			},
		}
	}
	base := exampleOptions(BFCBO)
	base.Heuristics.H2MinApplyRows = 100
	base.Heuristics.H6MaxKeepFraction = 0.95

	resH1, err := Optimize(mkBlock(), base)
	if err != nil {
		t.Fatal(err)
	}
	h9 := base
	h9.Heuristics.H9BothSides = true
	resH9, err := Optimize(mkBlock(), h9)
	if err != nil {
		t.Fatal(err)
	}
	if resH9.Candidates < resH1.Candidates {
		t.Fatalf("H9 should mark at least as many candidates: %d vs %d",
			resH9.Candidates, resH1.Candidates)
	}
	if resH9.Candidates != 2 {
		t.Fatalf("H9 should mark candidates on both sides, got %d", resH9.Candidates)
	}
}

func TestMarkCandidatesH1Off(t *testing.T) {
	b := exampleBlock()
	opts := exampleOptions(BFCBO)
	opts.Heuristics.H1LargerOnly = false
	o := newTestOptimizer(t, b, opts)
	o.markCandidates()
	// With H1 off, every inner clause contributes candidates in both
	// directions (subject to H2): t1<->t2 both pass (both large enough),
	// t2<->t3 both pass.
	if len(o.cands) != 4 {
		t.Fatalf("H1-off candidates = %d, want 4: %+v", len(o.cands), o.cands)
	}
}

// Multi-way equivalence: with three relations equal on one column, the
// Bloom filter builds only from the smallest (§3.3).
func TestMultiwayEquivalenceBuildsFromSmallest(t *testing.T) {
	mk := func(name string, rows float64) *catalog.Table {
		return catalog.NewTable(name, rows, []catalog.Column{
			{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows, Min: 0, Max: rows}}})
	}
	b := &query.Block{
		Name: "multiway",
		Relations: []query.Relation{
			{Alias: "a", Table: mk("a", 1e6)},
			{Alias: "b", Table: mk("b", 5e5)},
			{Alias: "c", Table: mk("c", 1e3)},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"},
			{Type: query.Inner, LeftRel: 1, LeftCol: "k", RightRel: 2, RightCol: "k"},
		},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := exampleOptions(BFCBO)
	o := newTestOptimizer(t, b, opts)
	o.markCandidates()
	if len(o.cands) != 2 {
		t.Fatalf("want 2 candidates (a and b), got %d: %+v", len(o.cands), o.cands)
	}
	for _, c := range o.cands {
		if c.buildRel != 2 {
			t.Fatalf("candidate %+v should build from the smallest relation (c)", c)
		}
		if c.applyRel == 2 {
			t.Fatalf("smallest relation must not receive a candidate: %+v", c)
		}
	}
}

func TestLeftJoinCandidateDirection(t *testing.T) {
	mk := func(name string, rows float64) *catalog.Table {
		return catalog.NewTable(name, rows, []catalog.Column{
			{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows, Min: 0, Max: rows}}})
	}
	b := &query.Block{
		Name: "leftjoin",
		Relations: []query.Relation{
			{Alias: "preserve", Table: mk("p", 1e5)},
			{Alias: "nullable", Table: mk("n", 1e6)},
		},
		Clauses: []query.JoinClause{
			{Type: query.Left, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k", SubRels: query.NewRelSet(1)},
		},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	o := newTestOptimizer(t, b, exampleOptions(BFCBO))
	o.markCandidates()
	for _, c := range o.cands {
		if c.applyRel == 0 {
			t.Fatalf("left-join candidate must not target the preserve side: %+v", c)
		}
	}
	if len(o.cands) != 1 || o.cands[0].applyRel != 1 {
		t.Fatalf("want exactly one candidate on the nullable side, got %+v", o.cands)
	}
	// The candidate resolves where the preserve side builds: a tenth of the
	// nullable side's keys can match, so the mirrored join takes the filter.
	res, err := Optimize(b, exampleOptions(BFCBO))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Plan.Joins()[0]
	if !j.BuildPreserved || j.Inner.Rels() != query.NewRelSet(0) || len(j.BuildBlooms) != 1 || res.Plan.Blooms[0].ApplyRel != 1 {
		t.Fatalf("want a right outer join building one filter for the nullable side:\n%s", res.Plan.Explain())
	}
}

// Heuristic 4 applies all of a relation's candidates at once — except a
// mirrored one, which commits the unit's join to an orientation: TPC-H Q20's
// shape (s semi-joins ps ⋈ p) must keep offering partsupp filtered from part
// alone, the only Bloom sub-plan the unmirrored join can use.
func TestMirroredCandidateIsOptional(t *testing.T) {
	mk := func(name string, rows, ndv float64) *catalog.Table {
		return catalog.NewTable(name, rows, []catalog.Column{
			{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 0, Max: ndv}},
			{Name: "j", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 0, Max: ndv}},
			{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 100, Min: 0, Max: 99}}})
	}
	b := &query.Block{
		Name: "q20-like",
		Relations: []query.Relation{
			{Alias: "s", Table: mk("s", 1e4, 1e4), Pred: query.CmpInt{Col: "v", Op: query.LT, Val: 10}},
			{Alias: "ps", Table: mk("ps", 8e5, 1e4)},
			{Alias: "p", Table: mk("p", 2e5, 2e5), Pred: query.CmpInt{Col: "v", Op: query.LT, Val: 5}},
		},
		Clauses: []query.JoinClause{
			{Type: query.Semi, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k", SubRels: query.NewRelSet(1, 2)},
			{Type: query.Inner, LeftRel: 1, LeftCol: "j", RightRel: 2, RightCol: "j"},
		},
	}
	o := newTestOptimizer(t, b, exampleOptions(BFCBO))
	o.markCandidates()
	o.phase1()
	o.makeBasePlans(true, false)
	var got []string
	for _, p := range o.lists[1].plans {
		sig := ""
		for _, pb := range p.pending {
			sig += fmt.Sprintf("[from %d mirrored=%v]", pb.cand.buildRel, pb.cand.mirrored)
		}
		got = append(got, sig)
	}
	want := []string{"", "[from 0 mirrored=true][from 2 mirrored=false]", "[from 2 mirrored=false]"}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("partsupp's sub-plans carry %q, want %q", got, want)
	}
}

func TestSubsetsByPopcountOrder(t *testing.T) {
	subs := subsetsByPopcount(query.NewRelSet(0, 1, 2), 2)
	if len(subs) != 4 {
		t.Fatalf("subsets = %v", subs)
	}
	for i := 1; i < len(subs); i++ {
		if subs[i].Count() < subs[i-1].Count() {
			t.Fatalf("not ordered by popcount: %v", subs)
		}
	}
	if subs[len(subs)-1] != query.NewRelSet(0, 1, 2) {
		t.Fatal("universe must come last")
	}
}

func TestInvalidCostParamsRejected(t *testing.T) {
	opts := exampleOptions(NoBF)
	opts.Cost.BloomApplyCost = 1 // above probe cost: invalid
	if _, err := Optimize(exampleBlock(), opts); err == nil {
		t.Fatal("invalid cost params should be rejected")
	}
}

func TestInvalidBlockRejected(t *testing.T) {
	if _, err := Optimize(&query.Block{Name: "empty"}, exampleOptions(NoBF)); err == nil {
		t.Fatal("invalid block should be rejected")
	}
}
