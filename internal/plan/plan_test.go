package plan

import (
	"strings"
	"testing"

	"bfcbo/internal/cost"
	"bfcbo/internal/query"
)

func samplePlan() *Plan {
	scanA := &Scan{Rel: 0, Alias: "a", Table: "ta", Rows: 100, Cost: 1,
		Pred: query.CmpInt{Col: "x", Op: query.LT, Val: 5}, ApplyBlooms: []int{1}}
	scanB := &Scan{Rel: 1, Alias: "b", Table: "tb", Rows: 10, Cost: 1}
	scanC := &Scan{Rel: 2, Alias: "c", Table: "tc", Rows: 5, Cost: 1}
	lower := &Join{
		JoinType: query.Inner, Outer: scanA, Inner: scanB,
		Conds:       []Cond{{OuterRel: 0, OuterCol: "x", InnerRel: 1, InnerCol: "y"}},
		BuildBlooms: []int{1}, Streaming: cost.Redistribute, Rows: 50, Cost: 10,
	}
	root := &Join{
		JoinType: query.Semi, Outer: lower, Inner: scanC,
		Conds: []Cond{{OuterRel: 1, OuterCol: "y", InnerRel: 2, InnerCol: "z"}},
		Rows:  20, Cost: 30,
	}
	return &Plan{
		Root: root, Mode: "test",
		Blooms: []BloomSpec{{
			ID: 1, ApplyRel: 0, ApplyCol: "x", BuildRel: 1, BuildCol: "y",
			Delta: query.NewRelSet(1), EstBuildNDV: 10,
		}},
	}
}

func TestPlanAccessors(t *testing.T) {
	p := samplePlan()
	if p.Root.Rels() != query.NewRelSet(0, 1, 2) {
		t.Fatalf("root rels = %s", p.Root.Rels())
	}
	if p.Root.EstRows() != 20 || p.Root.EstCost() != 30 {
		t.Fatal("root estimates wrong")
	}
	scans := p.Scans()
	if len(scans) != 3 || scans[0].Alias != "a" || scans[2].Alias != "c" {
		t.Fatalf("scans = %v", scans)
	}
	joins := p.Joins()
	if len(joins) != 2 || joins[0] != p.Root || joins[1] != p.Root.(*Join).Outer {
		t.Fatalf("joins order wrong: %v, %v", joins[0].Kind(), joins[1].Kind())
	}
	if p.CountBlooms() != 1 {
		t.Fatalf("blooms = %d", p.CountBlooms())
	}
}

func TestJoinOrderSignature(t *testing.T) {
	p := samplePlan()
	if got := p.JoinOrderSignature(); got != "((a b) c)" {
		t.Fatalf("signature = %q", got)
	}
}

func TestExplainContent(t *testing.T) {
	p := samplePlan()
	exp := p.Explain()
	for _, want := range []string{
		"plan (test)", "HashJoin(semi)", "HashJoin(inner) RD",
		"Scan a (ta)", "filter: x < 5", "blooms=[1]", "buildBF=[1]",
		"BF#1: build rel1.y",
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("Explain missing %q:\n%s", want, exp)
		}
	}
}
