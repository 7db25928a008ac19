package plan

import (
	"fmt"
	"strings"
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
	j1 := &Join{JoinType: query.Inner,
		Outer: scanNode(0, "a"), Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	j0 := &Join{JoinType: query.Inner,
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
	if pls[0].Source.Alias != "c" || pls[0].Sink != SinkHashBuild || pls[0].SinkJoin != j0 {
		t.Fatalf("P0 wrong: %s", pls[0].Describe())
	}
	// P1: scan b -> hash-build for j1.
	if pls[1].Source.Alias != "b" || pls[1].SinkJoin != j1 {
		t.Fatalf("P1 wrong: %s", pls[1].Describe())
	}
	// P2: scan a -> probe j1 -> probe j0 -> result, after P0 and P1.
	p2 := pls[2]
	if p2.Source.Alias != "a" || p2.Sink != SinkResult {
		t.Fatalf("P2 wrong: %s", p2.Describe())
	}
	if len(p2.Ops) != 2 || p2.Ops[0] != j1 || p2.Ops[1] != j0 {
		t.Fatalf("P2 ops wrong: %s", p2.Describe())
	}
	if len(p2.Deps) != 2 {
		t.Fatalf("P2 deps = %v, want two", p2.Deps)
	}
	if got := p2.Ops[len(p2.Ops)-1].Rels(); got != query.NewRelSet(0, 1, 2) {
		t.Fatalf("P2 rels = %s", got)
	}
}

// chainTree is HJ(HJ(HJ(a, b), c), d), the root building a Bloom filter that
// a's scan applies. It returns the plan, the joins in build order, and a.
func chainTree() (*Plan, []*Join, *Scan) {
	a := scanNode(0, "a")
	a.ApplyBlooms = []int{7}
	j1 := &Join{JoinType: query.Inner,
		Outer: a, Inner: scanNode(1, "b"),
		Conds: []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "x"}}}
	j2 := &Join{JoinType: query.Inner,
		Outer: j1, Inner: scanNode(2, "c"),
		Conds: []Cond{{OuterRel: 1, OuterCol: "y", InnerRel: 2, InnerCol: "y"}}}
	hj := &Join{JoinType: query.Inner,
		Outer: j2, Inner: scanNode(3, "d"), BuildBlooms: []int{7},
		Conds: []Cond{{OuterRel: 0, OuterCol: "z", InnerRel: 3, InnerCol: "z"}}}
	return &Plan{Root: hj}, []*Join{hj, j2, j1}, a
}

// chainTreeLayout is how Decompose lays out chainTree, given the kinds of its
// two lower joins.
func chainTreeLayout(k1, k2 string) []string {
	return []string{
		"P0: Scan d -> hash-build",
		"P1: Scan c -> hash-build",
		"P2: Scan b -> hash-build",
		fmt.Sprintf("P3: Scan a -> HashJoin(%s) probe(x) -> HashJoin(%s) probe(y)"+
			" -> HashJoin(inner) probe(z) -> result (after P2,P1,P0)", k1, k2),
	}
}

// Every join gets the hash join's layout — inner side into a hash build, probe
// fused into the outer pipeline — and keeps its node. The name dates from when
// only budgeted runs used this layout; it is now the only one.
func TestDecomposeBoundedLaysJoinsOutAsHashJoins(t *testing.T) {
	p, joins, a := chainTree()
	pls, err := Decompose(p)
	if err != nil {
		t.Fatal(err)
	}
	want := chainTreeLayout("inner", "inner")
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
		if i < len(joins) && (pl.Sink != SinkHashBuild || pl.SinkJoin != joins[i]) {
			t.Errorf("P%d feeds %s %v, want the build of %v", i, pl.Sink, pl.SinkJoin, joins[i])
		}
	}

	// The Bloom build -> apply edge: the pipeline that scans a waits for the
	// one that builds filter 7.
	build, found := -1, false
	for _, pl := range pls {
		if pl.Sink == SinkHashBuild && pl.SinkJoin == joins[0] {
			build = pl.ID
		}
	}
	for _, pl := range pls {
		if pl.Source == a {
			for _, d := range pl.Deps {
				found = found || d == build
			}
		}
	}
	if !found {
		t.Errorf("the scan applying BF#7 does not depend on its builder P%d", build)
	}
}

// The name dates from when the planner also named merge and nested-loop
// joins, laid out as hash joins. The layout is independent of a join's type
// and orientation too: every assignment lays out the same pipelines, and only
// the labels say which kind of hash join runs. A join with no condition has
// no key to hash on and is refused as a plan bug.
func TestDecomposeMergeAndNestLoop(t *testing.T) {
	kinds := []struct {
		jt       query.JoinType
		mirrored bool
	}{{query.Inner, false}, {query.Semi, false}, {query.Anti, true}, {query.Left, true}}
	for _, k1 := range kinds {
		for _, k2 := range kinds {
			p, joins, _ := chainTree()
			joins[2].JoinType, joins[2].BuildPreserved = k1.jt, k1.mirrored
			joins[1].JoinType, joins[1].BuildPreserved = k2.jt, k2.mirrored
			want := chainTreeLayout(joins[2].Kind(), joins[1].Kind())
			got, err := Decompose(p)
			if err != nil {
				t.Fatalf("%v/%v: %v", k1, k2, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v/%v: pipelines = %d, want %d", k1, k2, len(got), len(want))
			}
			for i, pl := range got {
				if pl.Describe() != want[i] {
					t.Errorf("%v/%v: P%d describes as %q, want %q", k1, k2, i, pl.Describe(), want[i])
				}
			}
		}
	}

	// A cross join on top: no condition, no layout.
	p, _, _ := chainTree()
	p.Root = &Join{JoinType: query.Inner, Outer: p.Root, Inner: scanNode(4, "e")}
	if _, err := Decompose(p); err == nil || !strings.Contains(err.Error(), "plan bug") {
		t.Errorf("a join with no condition: error = %v, want a plan bug", err)
	}
}

// TestExplainPipelines pins the one-line pipeline labels EXPLAIN ANALYZE
// prints under "pipelines (n):".
func TestExplainPipelines(t *testing.T) {
	j := &Join{JoinType: query.Inner,
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
