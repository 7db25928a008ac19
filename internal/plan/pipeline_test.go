package plan

import (
	"testing"

	"bfcbo/internal/query"
)

func scanNode(rel int, alias string) *Scan {
	return &Scan{Rel: rel, Alias: alias, Table: alias}
}

func TestDecomposeHashChain(t *testing.T) {
	// HJ(HJ(s0, s1), s2): the probe spine s0 runs fused through both
	// probes; each build side is its own earlier pipeline, in the same
	// inner-first order the legacy interpreter executed (s2, s1, s0).
	j1 := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	j0 := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: j1, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	pls, err := Decompose(&Plan{Root: j0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 3 {
		t.Fatalf("pipelines = %d, want 3", len(pls))
	}
	// P0: scan c -> hash-build for j0 (root's build side first).
	if s, ok := pls[0].Source.(*Scan); !ok || s.Alias != "c" || pls[0].Sink != SinkHashBuild || pls[0].SinkJoin != j0 {
		t.Fatalf("P0 wrong: %s", pls[0].Describe())
	}
	// P1: scan b -> hash-build for j1.
	if s, ok := pls[1].Source.(*Scan); !ok || s.Alias != "b" || pls[1].SinkJoin != j1 {
		t.Fatalf("P1 wrong: %s", pls[1].Describe())
	}
	// P2: scan a -> probe j1 -> probe j0 -> result, after P0 and P1.
	p2 := pls[2]
	if s, ok := p2.Source.(*Scan); !ok || s.Alias != "a" || p2.Sink != SinkResult {
		t.Fatalf("P2 wrong: %s", p2.Describe())
	}
	if len(p2.Ops) != 2 || p2.Ops[0] != j1 || p2.Ops[1] != j0 {
		t.Fatalf("P2 ops wrong: %s", p2.Describe())
	}
	if len(p2.Deps) != 2 {
		t.Fatalf("P2 deps = %v, want two", p2.Deps)
	}
	if got := p2.Rels(); got != query.NewRelSet(0, 1, 2) {
		t.Fatalf("P2 rels = %s", got)
	}
}

func TestDecomposeMergeAndNestLoop(t *testing.T) {
	// NL(MJ(s0, s1), s2): merge join breaks both inputs into sort
	// pipelines and sources a new pipeline that carries the NL probe.
	mj := &Join{Method: MergeJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	nl := &Join{Method: NestLoopJoin, JoinType: query.Inner,
		Outer: mj, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 1, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	pls, err := Decompose(&Plan{Root: nl})
	if err != nil {
		t.Fatal(err)
	}
	// c materialize, b sort-inner, a sort-outer, merge -> NL probe -> result.
	if len(pls) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(pls))
	}
	if pls[0].Sink != SinkMaterialize || pls[0].SinkJoin != nl {
		t.Fatalf("P0 wrong: %s", pls[0].Describe())
	}
	if pls[1].Sink != SinkSortInner || pls[2].Sink != SinkSortOuter {
		t.Fatalf("sort pipelines wrong: %s / %s", pls[1].Describe(), pls[2].Describe())
	}
	last := pls[3]
	if last.Source != mj || len(last.Ops) != 1 || last.Ops[0] != nl || last.Sink != SinkResult {
		t.Fatalf("final pipeline wrong: %s", last.Describe())
	}
	if len(last.Deps) != 3 {
		t.Fatalf("final deps = %v, want three", last.Deps)
	}
}

// DecomposeBounded gives every join with a condition the hash join's layout,
// keeps the nodes' identity, and says in the label what was planned.
func TestDecomposeBoundedLaysJoinsOutAsHashJoins(t *testing.T) {
	// HJ(NL(MJ(a, b), c), d), the hash join building a Bloom filter that a's
	// scan applies; x is a cross join with e on top.
	a := scanNode(0, "a")
	a.ApplyBlooms = []int{7}
	mj := &Join{Method: MergeJoin, JoinType: query.Inner,
		Outer: a, Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	nl := &Join{Method: NestLoopJoin, JoinType: query.Inner,
		Outer: mj, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 1, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	hj := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: nl, Inner: scanNode(3, "d"), BuildBlooms: []int{7},
		Conds: []Cond{{OuterRel: 0, OuterCol: "z", InnerRel: 3, InnerCol: "z"}}}
	cross := &Join{Method: NestLoopJoin, JoinType: query.Inner,
		Outer: hj, Inner: scanNode(4, "e")}
	p := &Plan{Root: cross}

	pls, err := DecomposeBounded(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"P0: Scan e -> materialize",
		"P1: Scan d -> hash-build",
		"P2: Scan c -> hash-build",
		"P3: Scan b -> hash-build",
		"P4: Scan a -> HashJoin(inner) probe(x) [planned MergeJoin]" +
			" -> HashJoin(inner) probe(y) [planned NestLoop]" +
			" -> HashJoin(inner) probe(z) -> NestLoop(inner) probe -> result (after P3,P2,P1,P0)",
	}
	if len(pls) != len(want) {
		t.Fatalf("pipelines = %d, want %d", len(pls), len(want))
	}
	for i, pl := range pls {
		if got := pl.Describe(); got != want[i] {
			t.Errorf("P%d describes as %q, want %q", i, got, want[i])
		}
		if pl.ID != i {
			t.Errorf("pipeline at position %d has ID %d", i, pl.ID)
		}
		for _, d := range pl.Deps {
			if d >= pl.ID {
				t.Errorf("P%d has non-topological dep P%d", pl.ID, d)
			}
		}
	}
	// The zero-condition join keeps its planned breaker; the others feed the
	// joins they were planned for.
	for i, j := range []*Join{cross, hj, nl, mj} {
		if pls[i].SinkJoin != j {
			t.Errorf("P%d feeds %v, want %v", i, pls[i].SinkJoin, j)
		}
	}
	if got := SummarizeDAG(pls).SpillableSinks; got != 3 {
		t.Errorf("spillable sinks = %d, want the 3 hash builds", got)
	}

	// The Bloom build -> apply edge is the one the planned layout has: the
	// pipeline that scans a waits for the one that builds filter 7.
	planned, err := Decompose(p)
	if err != nil {
		t.Fatal(err)
	}
	builderOf := func(pls []*Pipeline) (build int, applyDeps []int) {
		for _, pl := range pls {
			if pl.Sink == SinkHashBuild && pl.SinkJoin == hj {
				build = pl.ID
			}
			if pl.Source == Node(a) {
				applyDeps = pl.Deps
			}
		}
		return build, applyDeps
	}
	for name, pls := range map[string][]*Pipeline{"planned": planned, "bounded": pls} {
		build, deps := builderOf(pls)
		found := false
		for _, d := range deps {
			found = found || d == build
		}
		if !found {
			t.Errorf("%s: the scan applying BF#7 depends on %v, not on its builder P%d", name, deps, build)
		}
	}
	if n := len(planned); n != 6 {
		t.Errorf("planned layout has %d pipelines, want 6 (two sorts and a merge source)", n)
	}
}

// TestExplainPipelines pins the one-line pipeline labels EXPLAIN ANALYZE
// prints under "pipelines (n):".
func TestExplainPipelines(t *testing.T) {
	j := &Join{Method: HashJoin, JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	pls, err := Decompose(&Plan{Root: j})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"P0: Scan b -> hash-build", "P1: Scan a -> HashJoin(inner) probe(x) -> result (after P0)"}
	if len(pls) != len(want) {
		t.Fatalf("pipelines = %d, want %d", len(pls), len(want))
	}
	for i, pl := range pls {
		if got := pl.Describe(); got != want[i] {
			t.Fatalf("P%d describes as %q, want %q", i, got, want[i])
		}
	}
}

func TestDecomposeRejectsUnknownNode(t *testing.T) {
	if _, err := Decompose(&Plan{Root: nil}); err == nil {
		t.Fatal("nil root should fail decomposition")
	}
}
