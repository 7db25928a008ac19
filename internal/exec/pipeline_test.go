package exec

import (
	"reflect"
	"strings"
	"testing"

	"bfcbo/internal/cost"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// The pipelined executor must expose per-operator runtime stats and an
// EXPLAIN ANALYZE rendering with actual rows per node.
func TestPipelinedOpStatsAndExplainAnalyze(t *testing.T) {
	db, schema := fixture(t)
	p, r := optimizeAndRun(t, db, factDimBlock(schema, query.Inner), optimizer.BFCBO, 4)
	if len(r.OpStats) == 0 || len(r.Pipelines) == 0 {
		t.Fatalf("pipelined run recorded no stats: ops=%d pipelines=%d", len(r.OpStats), len(r.Pipelines))
	}
	// The root join's stat must agree with the recorded actual and output.
	root := r.StatFor(p.Root)
	if root == nil {
		t.Fatal("no OpStat for plan root")
	}
	if int(root.RowsOut) != r.Rows || r.Rows != r.Out.Len() {
		t.Fatalf("root stat rows=%d, result rows=%d, out=%d", root.RowsOut, r.Rows, r.Out.Len())
	}
	// Every scan and join node has a stat.
	for _, s := range p.Scans() {
		if r.StatFor(s) == nil {
			t.Fatalf("no OpStat for scan %s", s.Alias)
		}
	}
	ea := r.ExplainAnalyze(p)
	for _, want := range []string{"actual=", "pipelines (", "workers="} {
		if !strings.Contains(ea, want) {
			t.Fatalf("ExplainAnalyze missing %q:\n%s", want, ea)
		}
	}
	// Legacy runs fall back to est→actual without operator stats.
	res, err := optimizer.Optimize(factDimBlock(schema, query.Inner), optimizer.Options{
		Mode: optimizer.NoBF, Cost: cost.Paper(), MaxPlansPerSet: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Run(db, factDimBlock(schema, query.Inner), res.Plan, Options{DOP: 2, Legacy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.OpStats) != 0 || len(lr.Pipelines) != 0 {
		t.Fatalf("legacy run recorded pipeline stats: %+v", lr.Pipelines)
	}
	if !strings.Contains(lr.ExplainAnalyze(res.Plan), "actual=") {
		t.Fatal("legacy ExplainAnalyze missing actuals")
	}
	// No sink folds or carries dictionary codes: a TPC-H block's rendering
	// has no aggregation suffix on any pipeline line.
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(12)
	q12 := q.Build(ds.Schema)
	tp, tr := optimizeAndRun(t, ds.DB, q12, optimizer.BFCBO, 2)
	tea := tr.ExplainAnalyze(tp)
	if !strings.Contains(tea, "pipelines (") {
		t.Fatalf("Q12 ExplainAnalyze has no pipeline schedule:\n%s", tea)
	}
	for _, gone := range []string{"fold=", "dict-carried="} {
		if strings.Contains(tea, gone) {
			t.Fatalf("Q12 ExplainAnalyze still renders %q:\n%s", gone, tea)
		}
	}
}

// Tiny morsels force many batches through a scan→probe chain; results must
// not depend on the morsel granularity.
func TestMorselSizeInvariance(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	res, err := optimizer.Optimize(b, optimizer.Options{
		Mode: optimizer.BFCBO, Cost: cost.Paper(),
		Heuristics: optimizer.Heuristics{H1LargerOnly: true, H2MinApplyRows: 10,
			H3FKLosslessPK: true, H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9},
		MaxPlansPerSet: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, morsel := range []int{1, 7, 64, 100_000} {
		r, err := Run(db, b, res.Plan, Options{DOP: 3, morselSize: morsel})
		if err != nil {
			t.Fatalf("morsel %d: %v", morsel, err)
		}
		if r.Rows != 100 {
			t.Fatalf("morsel %d: rows = %d, want 100", morsel, r.Rows)
		}
	}
}

// concat is every sink's merge. A worker that got no batch leaves a nil
// part and one whose batches were all empty an empty one; both are
// skipped, the live parts are copied in worker order, a lone live part is
// returned as is, and no live part at all still yields a row set covering
// the sink's relations.
func TestConcatSkipsNilParts(t *testing.T) {
	rels := query.NewRelSet(0, 2, 5)
	parts := make([]*RowSet, 9)
	want := make([][]int32, rels.Count())
	next := int32(0)
	for i := range parts {
		switch i % 4 {
		case 3:
			continue // nil part
		case 1:
			parts[i] = NewRowSet(rels) // empty part
			continue
		}
		parts[i] = NewRowSet(rels)
		for r := 0; r < 700*(i+1); r++ {
			for c := range parts[i].cols {
				parts[i].cols[c] = append(parts[i].cols[c], next)
				want[c] = append(want[c], next)
				next++
			}
		}
	}
	got := concat(rels, parts)
	if got.rels != rels || !reflect.DeepEqual(got.cols, want) {
		t.Fatalf("concat of %d parts: %d rows over %s, want %d rows over %s", len(parts), got.Len(), got.rels, len(want[0]), rels)
	}
	lone := []*RowSet{nil, NewRowSet(rels), parts[0], nil}
	if got := concat(rels, lone); got != parts[0] {
		t.Fatal("a lone live part was copied")
	}
	if got := concat(rels, []*RowSet{nil, nil}); got.rels != rels || got.Len() != 0 || len(got.cols) != rels.Count() {
		t.Fatalf("concat of nil parts: %d rows over %s, want an empty set over %s", got.Len(), got.rels, rels)
	}
}
