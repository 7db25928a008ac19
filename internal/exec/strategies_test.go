package exec

import (
	"testing"

	"bfcbo/internal/cost"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// handPlan builds a fact⋈dim hash join with one Bloom filter and a forced
// §3.9 streaming annotation.
func handPlan(streaming cost.Streaming) *plan.Plan {
	scanF := &plan.Scan{Rel: 0, Alias: "f", Table: "fact", ApplyBlooms: []int{0}}
	scanD := &plan.Scan{Rel: 1, Alias: "d", Table: "dim",
		Pred: query.CmpInt{Col: "tag", Op: query.LT, Val: 10}}
	root := &plan.Join{
		JoinType: query.Inner,
		Outer:    scanF, Inner: scanD,
		Conds:       []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
		BuildBlooms: []int{0},
		Streaming:   streaming,
	}
	return &plan.Plan{Root: root, Blooms: []plan.BloomSpec{{
		ID: 0, ApplyRel: 0, ApplyCol: "fk", BuildRel: 1, BuildCol: "pk",
		Delta: query.NewRelSet(1), EstBuildNDV: 10,
	}}}
}

// The §3.9 streaming annotation does not reach the executor: whatever the
// planner wrote on the join, and at any DOP, the spec is built and probed
// as the same one filter and the result is the same 100 rows.
func TestStreamingStrategiesSection39(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	var want *BloomRuntime
	for _, streaming := range []cost.Streaming{cost.None, cost.BroadcastInner, cost.Redistribute} {
		for _, dop := range []int{1, 4} {
			r, err := Run(db, b, handPlan(streaming), Options{DOP: dop})
			if err != nil {
				t.Fatalf("%s dop %d: %v", streaming, dop, err)
			}
			if r.Rows != 100 {
				t.Fatalf("%s dop %d: rows = %d, want 100", streaming, dop, r.Rows)
			}
			if len(r.BloomStats) != 1 {
				t.Fatalf("%s dop %d: stats = %+v", streaming, dop, r.BloomStats)
			}
			st := r.BloomStats[0]
			if want == nil {
				want = &st
				if st.Inserted != 10 {
					t.Fatalf("inserted = %d, want 10", st.Inserted)
				}
				// A 10-of-100-keys filter on 1000 rows must pass ≈100 rows.
				if st.Tested != 1000 || st.Passed < 100 || st.Passed > 300 {
					t.Fatalf("tested = %d, passed = %d, want 1000 and ≈100", st.Tested, st.Passed)
				}
			}
			if st != *want {
				t.Fatalf("%s dop %d: runtime = %+v, want %+v", streaming, dop, st, *want)
			}
		}
	}
}

func TestLeftOuterJoinExecution(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Left)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	root := &plan.Join{
		JoinType: query.Left,
		Outer:    &plan.Scan{Rel: 0, Alias: "f", Table: "fact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "dim",
			Pred: query.CmpInt{Col: "tag", Op: query.LT, Val: 10}},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}
	for _, dop := range []int{1, 4} {
		r, rows, err := runRows(db, b, &plan.Plan{Root: root}, Options{DOP: dop})
		if err != nil {
			t.Fatal(err)
		}
		// All 1000 fact rows survive: 100 with a match, 900 null-extended.
		if r.Rows != 1000 || rows.Len() != 1000 {
			t.Fatalf("dop %d: left join rows = %d (%d returned), want 1000", dop, r.Rows, rows.Len())
		}
		nulls := 0
		for _, id := range rows.Col(1) {
			if id < 0 {
				nulls++
			}
		}
		if nulls != 900 {
			t.Fatalf("dop %d: null-extended rows = %d, want 900", dop, nulls)
		}
	}
}

// A join with no condition has no key to hash on, and a join type the hash
// join does not know has no rows to keep: the engine and the reference refuse
// both.
func TestHashJoinNoConds(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	root := &plan.Join{
		JoinType: query.Inner,
		Outer:    &plan.Scan{Rel: 0, Alias: "f", Table: "fact"},
		Inner:    &plan.Scan{Rel: 1, Alias: "d", Table: "dim"},
	}
	for _, opts := range []Options{{DOP: 1}, {Legacy: true}} {
		if _, err := Run(db, b, &plan.Plan{Root: root}, opts); err == nil {
			t.Fatalf("legacy %v: hash join without conditions should be rejected", opts.Legacy)
		}
	}
	root.Conds = []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}}
	root.JoinType = query.JoinType(99)
	for _, opts := range []Options{{DOP: 1}, {Legacy: true}} {
		if _, err := Run(db, b, &plan.Plan{Root: root}, opts); err == nil {
			t.Fatalf("legacy %v: unknown join type should be rejected", opts.Legacy)
		}
	}
}

func TestEmptyBuildSide(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	root := &plan.Join{
		JoinType: query.Inner,
		Outer:    &plan.Scan{Rel: 0, Alias: "f", Table: "fact", ApplyBlooms: []int{0}},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "dim",
			Pred: query.CmpInt{Col: "tag", Op: query.LT, Val: -1}}, // nothing survives
		Conds:       []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
		BuildBlooms: []int{0},
	}
	p := &plan.Plan{Root: root, Blooms: []plan.BloomSpec{{
		ID: 0, ApplyRel: 0, ApplyCol: "fk", BuildRel: 1, BuildCol: "pk", EstBuildNDV: 1,
	}}}
	r, err := Run(db, b, p, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 0 {
		t.Fatalf("empty build side should produce 0 rows, got %d", r.Rows)
	}
	// The empty filter rejects everything: the probe scan emits 0 rows.
	if r.BloomStats[0].Passed != 0 {
		t.Fatalf("empty filter passed %d rows", r.BloomStats[0].Passed)
	}
}
