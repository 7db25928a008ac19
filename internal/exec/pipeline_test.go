package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bfcbo/internal/cost"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
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
	// The root join's stat must agree with the counted output.
	root := r.StatFor(p.Root)
	if root == nil {
		t.Fatal("no OpStat for plan root")
	}
	if int(root.RowsOut) != r.Rows {
		t.Fatalf("root stat rows=%d, result rows=%d", root.RowsOut, r.Rows)
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
	// Legacy runs record one OpStat a node, but no pipeline: EXPLAIN
	// ANALYZE renders est→actual only.
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
	if len(lr.OpStats) != len(res.Plan.Scans())+len(res.Plan.Joins()) || len(lr.Pipelines) != 0 {
		t.Fatalf("legacy run recorded %d node stats and pipelines %+v", len(lr.OpStats), lr.Pipelines)
	}
	if lea := lr.ExplainAnalyze(res.Plan); !strings.Contains(lea, "actual=") || strings.Contains(lea, "batches=") {
		t.Fatalf("legacy ExplainAnalyze renders no actuals, or batches it never ran:\n%s", lea)
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
// not depend on the morsel granularity. Every size but 1 and 100 000
// leaves a partial last morsel on one of the scans (fact has 1 000 rows,
// dim 100), and the predicate variants put each way a scan starts a
// morsel under test: no predicate (the chain only writes the ids), a
// column kernel reading its column directly, an Or or Not that fills the
// ids and runs EvalBatch, and a chain whose later members compact what the
// first kept. Every run must return the reference's tuples.
func TestMorselSizeInvariance(t *testing.T) {
	db, schema := fixture(t)
	variants := []struct {
		name      string
		fact, dim query.Predicate
		rows      int
	}{
		{"dim cmp", nil, query.CmpInt{Col: "tag", Op: query.LT, Val: 10}, 100},
		{"dim or", nil, query.Or{Ps: []query.Predicate{
			query.CmpInt{Col: "tag", Op: query.LT, Val: 5},
			query.BetweenInt{Col: "tag", Lo: 90, Hi: 96},
		}}, 120},
		{"fact not", query.Not{P: query.BetweenInt{Col: "v", Lo: 100, Hi: 899}}, nil, 200},
		{"fact chain", query.And{Ps: []query.Predicate{
			query.BetweenInt{Col: "v", Lo: 3, Hi: 996},
			query.CmpInt{Col: "fk", Op: query.NE, Val: 7},
			query.Not{P: query.InInt{Col: "v", Vals: []int64{10, 20, 30}}},
		}}, query.CmpInt{Col: "tag", Op: query.GE, Val: 50}, 497},
	}
	for _, v := range variants {
		b := factDimBlock(schema, query.Inner)
		b.Relations[0].Pred, b.Relations[1].Pred = v.fact, v.dim
		res, err := optimizer.Optimize(b, optimizer.Options{
			Mode: optimizer.BFCBO, Cost: cost.Paper(),
			Heuristics: optimizer.Heuristics{H1LargerOnly: true, H2MinApplyRows: 10,
				H3FKLosslessPK: true, H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9},
			MaxPlansPerSet: 100_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		ref, refRows, err := runRows(db, b, res.Plan, Options{Legacy: true})
		if err != nil {
			t.Fatalf("%s: reference: %v", v.name, err)
		}
		if ref.Rows != v.rows {
			t.Fatalf("%s: reference rows = %d, want %d", v.name, ref.Rows, v.rows)
		}
		want := canonicalRows(refRows)
		for _, morsel := range []int{1, 7, 64, 999, 1000, 100_000} {
			_, rows, err := runRows(db, b, res.Plan, Options{DOP: 3, morselSize: morsel})
			if err != nil {
				t.Fatalf("%s morsel %d: %v", v.name, morsel, err)
			}
			sameTuples(t, fmt.Sprintf("%s morsel %d", v.name, morsel), canonicalRows(rows), want)
		}
	}

	// A mirrored semi or anti join emits only what its sweep emits, in
	// batches of at most a morsel's worth of build rows: at tiny morsels
	// the sweep of fact's 1 000 rows crosses many batch boundaries.
	for _, jt := range []query.JoinType{query.Semi, query.Anti} {
		b := factDimBlock(schema, jt)
		p := flipOrientation(&plan.Plan{Root: &plan.Join{
			JoinType: jt,
			Conds:    []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
			Outer:    &plan.Scan{Rel: 0, Alias: "f", Table: "fact"},
			Inner:    &plan.Scan{Rel: 1, Alias: "d", Table: "dim", Pred: b.Relations[1].Pred},
		}})
		_, ref, err := runRows(db, b, p, Options{Legacy: true})
		if err != nil {
			t.Fatalf("mirrored %s: reference: %v", jt, err)
		}
		want := canonicalRows(ref)
		for _, morsel := range []int{7, 64, 1000} {
			what := fmt.Sprintf("mirrored %s morsel %d", jt, morsel)
			rec := &batchSizes{}
			_, rows, err := runRows(db, b, p, Options{DOP: 3, morselSize: morsel, injectOp: func(_ *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
				if _, ok := op.(*probeOp); !ok {
					return op
				}
				return rec.wrap(op)
			}})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameTuples(t, what, canonicalRows(rows), want)
			var sizes []int
			for _, op := range rec.ops {
				sizes = append(sizes, op.sizes...)
			}
			if wantBatches := (len(want) + morsel - 1) / morsel; len(sizes) != wantBatches {
				t.Errorf("%s: the sweep emitted %d batches %v; want %d", what, len(sizes), sizes, wantBatches)
			}
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

// TestResultSpansChunks runs TPC-H blocks of thousands of output rows at
// tiny morsels, so every worker hands the result sink many batches, at DOP
// 1 and 4 (which workers get rows is up to the schedule); the rows the
// result pipeline returns equal the reference's tuples.
func TestResultSpansChunks(t *testing.T) {
	ds := equivalenceDataset(t)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	for _, num := range []int{1, 13, 18} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		_, ref, err := runRows(ds.DB, block, res.Plan, Options{Legacy: true})
		if err != nil {
			t.Fatalf("Q%d: reference: %v", num, err)
		}
		want := canonicalRows(ref)
		for _, dop := range []int{1, 4} {
			what := fmt.Sprintf("Q%d dop %d", num, dop)
			_, rows, err := runRows(ds.DB, block, res.Plan, Options{DOP: dop, morselSize: 8})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameTuples(t, what, canonicalRows(rows), want)
		}
	}
}

// TestLiveProgressCountsMorsels: the live view reads each pipeline's scan
// counters, so a finished pipeline shows every morsel of its scan claimed
// and every source row scanned — also the morsels its predicates, filters
// or probes emptied, and whether or not its join spilled. The result
// pipeline is held at its first batch while the snapshot is taken, so
// every other pipeline has finished by then.
func TestLiveProgressCountsMorsels(t *testing.T) {
	ds := equivalenceDataset(t)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	for _, num := range []int{8, 16, 17} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		pipes, err := plan.Decompose(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{0, tinyBudget} {
			name := fmt.Sprintf("Q%d budget %d", num, budget)
			in := obs.NewInspector()
			gate := make(chan struct{})
			ropts := Options{DOP: 2, Broker: mem.NewBroker(budget), SpillDir: t.TempDir(), Inspector: in}
			ropts.injectOp = func(pl *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
				if pl.Sink == plan.SinkResult {
					return &stallOp{child: op, gate: gate}
				}
				return op
			}
			type outcome struct {
				r   *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				r, err := Run(ds.DB, block, res.Plan, ropts)
				done <- outcome{r, err}
			}()
			snap := stalledSnapshot(t, in, pipes[len(pipes)-1].ID)
			close(gate)
			out := <-done
			if out.err != nil {
				t.Fatalf("%s: %v", name, out.err)
			}
			for _, pl := range pipes {
				ps := snap.Pipelines[pl.ID]
				if pl.Sink == plan.SinkResult {
					continue
				}
				if ps.State != "done" {
					t.Fatalf("%s: P%d is %s while the result pipeline runs", name, pl.ID, ps.State)
				}
				tbl, err := ds.DB.Table(block.Relations[pl.Source.Rel].Table.Name)
				if err != nil {
					t.Fatal(err)
				}
				rows := int64(tbl.NumRows())
				if ps.MorselsDone != ps.MorselsPlanned || ps.RowsScanned != rows {
					t.Errorf("%s: done P%d shows %d of %d morsels and %d of %d rows scanned",
						name, pl.ID, ps.MorselsDone, ps.MorselsPlanned, ps.RowsScanned, rows)
				}
				if want := out.r.Pipelines[pl.ID].Rows; ps.RowsEmitted != want {
					t.Errorf("%s: done P%d shows %d rows emitted, its sink took %d", name, pl.ID, ps.RowsEmitted, want)
				}
			}
		}
	}
}

// stalledSnapshot polls the inspector until its one query's pipeline
// result is running, and returns that snapshot.
func stalledSnapshot(t *testing.T, in *obs.Inspector, result int) obs.LiveSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snaps := in.Snapshot(); len(snaps) == 1 && snaps[0].Pipelines[result].State == "running" {
			return snaps[0]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the result pipeline never started")
	return obs.LiveSnapshot{}
}
