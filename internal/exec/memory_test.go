package exec

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// The memory-budget equivalence suite: with MemBudget set below the
// smallest join build side, every breaker spills, and the results must be
// identical — row for row — to the unlimited-budget run, with no temp
// files left behind. The quick default covers a representative query mix;
// -mem-budget-test (CI's constrained-memory step) runs the full TPC-H
// grid.

var memBudgetFull = flag.Bool("mem-budget-test", false,
	"run the memory-budget equivalence suite over every TPC-H query instead of the quick subset")

// tinyBudget is below any non-empty join build side (one row of one
// relation is 4 bytes), so every join spills.
const tinyBudget = 1

// canonicalRows fingerprints a row set as a sorted multiset of tuples, so
// outputs can be compared across runs whose row order differs (spilling
// reorders partitions; worker interleaving reorders parts; the planner may
// build either side of a semi, anti or left join). Every column counts: the
// subquery side of a semi or anti join is null in every row.
func canonicalRows(rs *RowSet) []string {
	if rs == nil {
		return nil
	}
	cols := rs.cols
	n := rs.Len()
	rows := make([]string, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		for _, col := range cols {
			fmt.Fprintf(&sb, "%d,", col[i])
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

func assertNoSpillFiles(t *testing.T, root string) {
	t.Helper()
	var leftover []string
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && path != root {
			leftover = append(leftover, path)
		}
		return nil
	})
	if len(leftover) > 0 {
		t.Errorf("spill files leaked under %s: %v", root, leftover)
	}
}

func TestExecutorEquivalenceMemBudget(t *testing.T) {
	ds := equivalenceDataset(t)
	queries := []int{3, 5, 8, 12, 21}
	if *memBudgetFull {
		queries = nil
		for _, q := range tpch.All() {
			queries = append(queries, q.Num)
		}
	}
	for _, num := range queries {
		q, ok := tpch.Get(num)
		if !ok {
			t.Fatalf("unknown TPC-H query %d", num)
		}
		block := q.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		for _, dop := range []int{1, 4} {
			// The baseline runs unlimited at the same DOP: Bloom filter
			// strategy — and so false-positive rate and intermediate
			// actuals — legitimately varies with DOP.
			baseline, baseRows, err := runRows(ds.DB, block, res.Plan, Options{DOP: dop})
			if err != nil {
				t.Fatalf("Q%d dop %d: unlimited run: %v", num, dop, err)
			}
			if s := baseline.TotalSpill(); s.Spilled() {
				t.Errorf("Q%d dop %d: unlimited-budget run spilled: %+v", num, dop, s)
			}
			want := canonicalRows(baseRows)
			spillRoot := t.TempDir()
			r, rows, err := runRows(ds.DB, block, res.Plan, Options{
				DOP: dop, Broker: mem.NewBroker(tinyBudget), SpillDir: spillRoot,
			})
			if err != nil {
				t.Fatalf("Q%d dop %d: budgeted run: %v", num, dop, err)
			}
			if r.Rows != baseline.Rows {
				t.Errorf("Q%d dop %d: rows = %d, want %d", num, dop, r.Rows, baseline.Rows)
			}
			got := canonicalRows(rows)
			if len(got) != len(want) {
				t.Errorf("Q%d dop %d: %d tuples, want %d", num, dop, len(got), len(want))
			} else {
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("Q%d dop %d: tuple %d = %s, want %s", num, dop, i, got[i], want[i])
						break
					}
				}
			}
			// Per-node actuals are deterministic row counts; they must
			// survive spilling unchanged.
			for _, op := range baseline.OpStats {
				if got := r.ActualFor(op.Node); got != float64(op.RowsOut) {
					t.Errorf("Q%d dop %d: node actual diverges under budget: %d vs %v",
						num, dop, op.RowsOut, got)
				}
			}
			// Every query with a join must spill under the tiny budget; a
			// joinless scan has no spillable breaker state.
			if s := r.TotalSpill(); !s.Spilled() && len(res.Plan.Joins()) > 0 {
				t.Errorf("Q%d dop %d: tiny budget never spilled", num, dop)
			}
			// Bloom filters are bit-identical whether built in memory or
			// streamed from spill files, so runtime records must agree.
			base := bloomByID(baseline.BloomStats)
			budg := bloomByID(r.BloomStats)
			if len(base) != len(budg) {
				t.Errorf("Q%d dop %d: bloom stat count diverges under budget: %d vs %d",
					num, dop, len(base), len(budg))
			}
			for id, b := range base {
				p, ok := budg[id]
				if !ok {
					t.Errorf("Q%d dop %d: bloom %d missing from budgeted run", num, dop, id)
					continue
				}
				if b != p {
					t.Errorf("Q%d dop %d: bloom %d diverges under budget: %+v vs %+v", num, dop, id, b, p)
				}
			}
			assertNoSpillFiles(t, spillRoot)
		}
	}
}

// skewJoinFixture builds a hash join whose build side is one heavily
// repeated key — hash repartitioning cannot split it, so a tiny budget
// drives the grace join down to its recursion cap before force-loading.
func skewJoinFixture(t *testing.T, buildRows, probeRows int) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	db := storage.NewDatabase()
	fk := make([]int64, probeRows)
	for i := range fk {
		fk[i] = 7
	}
	fact, err := storage.NewTable("sfact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: fk},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := make([]int64, buildRows)
	for i := range pk {
		pk[i] = 7
	}
	dim, err := storage.NewTable("sdim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: pk},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	for _, tb := range []*storage.Table{fact, dim} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(storage.Analyze(tb)); err != nil {
			t.Fatal(err)
		}
	}
	b := &query.Block{
		Name: "skew",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("sfact")},
			{Alias: "d", Table: schema.MustTable("sdim")},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk"},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		JoinType: query.Inner,
		Outer:    &plan.Scan{Rel: 0, Alias: "f", Table: "sfact"},
		Inner:    &plan.Scan{Rel: 1, Alias: "d", Table: "sdim"},
		Conds:    []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	return db, b, p
}

// A skewed partition that hashing cannot split must recurse to the depth
// cap, force-load there, and still produce the exact join result.
func TestGraceJoinRecursionDepthCap(t *testing.T) {
	const buildRows, probeRows = graceMinPartRows + 1000, 10
	db, b, p := skewJoinFixture(t, buildRows, probeRows)
	spillRoot := t.TempDir()
	r, err := Run(db, b, p, Options{DOP: 4, Broker: mem.NewBroker(tinyBudget), SpillDir: spillRoot})
	if err != nil {
		t.Fatal(err)
	}
	if want := buildRows * probeRows; r.Rows != want {
		t.Fatalf("rows = %d, want %d", r.Rows, want)
	}
	s := r.TotalSpill()
	if !s.Spilled() {
		t.Fatal("skew join under tiny budget never spilled")
	}
	if s.Depth != graceMaxDepth {
		t.Fatalf("recursion depth = %d, want the cap %d (unsplittable key)", s.Depth, graceMaxDepth)
	}
	assertNoSpillFiles(t, spillRoot)
}

// Once an in-memory hash build's finish returns, its reservation holds the
// merged row set and the built table, and nothing more for the workers'
// parts that the merge copied: with one worker the lone part is the merged
// set, with four the merge copies the parts.
func TestInMemoryBuildHoldsItsBytes(t *testing.T) {
	const buildRows = 5000
	for _, workers := range []int{1, 4} {
		f := newJoinSidesFixture(t, buildRows)
		snk := &hashBuildSink{
			rels: query.NewRelSet(joinSidesBuildRel), parts: make([]*RowSet, workers),
			ex: f.ex, j: f.j, estRows: buildRows,
			res: f.ex.memq.Reserve(), rec: &spillCounters{},
		}
		for i, b := range f.buildBatches {
			snk.consume(i%workers, b)
		}
		if err := snk.finish(); err != nil {
			t.Fatal(err)
		}
		ht := f.ex.builds[f.j]
		if want := rowSetBytes(buildRows, 1) + ht.bytes(); f.ex.memq.Used() != want {
			t.Errorf("%d workers: the build holds %d B after finish, want its row set and table, %d B",
				workers, f.ex.memq.Used(), want)
		}
	}
}

// A run counts its result rows and keeps none, so a block of one relation,
// which builds no hash table, holds nothing on its broker: Q1 under a
// budget peaks at 0 bytes at DOP 1 and 4.
func TestResultRowsHoldNoMemory(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(1)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Plan.Joins()); n != 0 {
		t.Fatalf("Q1 plans %d joins, want none", n)
	}
	for _, dop := range []int{1, 4} {
		broker := mem.NewBroker(16 << 20)
		r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop, Broker: broker, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if r.Rows == 0 {
			t.Fatalf("dop %d: Q1 returned no rows", dop)
		}
		if r.MemPeak != 0 || broker.Peak() != 0 {
			t.Errorf("dop %d: %d result rows peaked at %d B on the query, %d B on the broker; want 0",
				dop, r.Rows, r.MemPeak, broker.Peak())
		}
	}
}

// sameTuples fails the test when two canonicalRows lists differ.
func sameTuples(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: tuple %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// The name dates from when the planner also named merge and nested-loop
// joins, which ran as this hash join. Under a memory budget the fact⋈dim
// hash join spills the one way anything spills — grace partitions — and
// returns the reference's tuples at every DOP.
func TestBudgetedMergeAndNestLoopSpillAsGraceJoin(t *testing.T) {
	db, b, p := factDimFixture(t)
	root := p.Root.(*plan.Join)
	want, wantRows, err := runRows(db, b, p, Options{Legacy: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, dop := range []int{1, 4} {
		what := fmt.Sprintf("dop %d", dop)
		broker := mem.NewBroker(tinyBudget)
		spillRoot := t.TempDir()
		r, rows, err := runRows(db, b, p, Options{DOP: dop, Broker: broker, SpillDir: spillRoot})
		if err != nil {
			t.Fatalf("%s: budgeted run: %v", what, err)
		}
		sameTuples(t, what, canonicalRows(rows), canonicalRows(wantRows))
		if got := r.ActualFor(root); got != want.ActualFor(root) {
			t.Errorf("%s: join actual %v under budget, %v in the reference", what, got, want.ActualFor(root))
		}
		if s := r.TotalSpill(); s.Partitions == 0 || s.Bytes == 0 {
			t.Errorf("%s: no grace partitions under the tiny budget: %+v", what, s)
		}
		if err := Audit(AuditState{Broker: broker, SpillDir: spillRoot}); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		assertNoSpillFiles(t, spillRoot)
	}
}

// Every TPC-H block under the paper's cost profile runs at DOP 1 and 4 under
// a budget that spills every join, and returns the reference's tuples.
// (TestExecutorEquivalenceTPCH covers the same plans with memory unlimited.)
func TestBudgetedRunHasOneBreakerKind(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range []optimizer.Mode{optimizer.BFPost, optimizer.BFCBO} {
			opts := optimizer.PaperOptions(0.01)
			opts.Mode = mode
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			_, want, err := runRows(ds.DB, block, res.Plan, Options{Legacy: true})
			if err != nil {
				t.Fatalf("Q%d %s: reference run: %v", q.Num, mode, err)
			}
			for _, dop := range []int{1, 4} {
				what := fmt.Sprintf("Q%d %s dop %d", q.Num, mode, dop)
				spillRoot := t.TempDir()
				_, rows, err := runRows(ds.DB, block, res.Plan, Options{DOP: dop, Broker: mem.NewBroker(tinyBudget), SpillDir: spillRoot})
				if err != nil {
					t.Fatalf("%s: budgeted run: %v", what, err)
				}
				sameTuples(t, what, canonicalRows(rows), canonicalRows(want))
				assertNoSpillFiles(t, spillRoot)
			}
		}
	}
}

// A join with no condition has no key to hash on. Block.Validate refuses
// the disconnected graphs that would need one, so only a hand-built plan
// gets here, and it is refused as a plan bug before admission — at every
// budget — leaving the broker, the scheduler and the spill directory clean.
func TestCrossJoinFailsBeforeAdmission(t *testing.T) {
	db, b, p := factDimFixture(t)
	p.Root.(*plan.Join).Conds = nil
	for _, budget := range []int64{0, tinyBudget} {
		broker := mem.NewBroker(budget)
		scheduler := sched.New(sched.Config{Slots: 2})
		spillRoot := t.TempDir()
		_, err := Run(db, b, p, Options{DOP: 2, Broker: broker, Sched: scheduler, SpillDir: spillRoot})
		if err == nil || !strings.Contains(err.Error(), "plan bug") {
			t.Fatalf("budget %d: cross join error = %v, want a plan bug", budget, err)
		}
		if tot := scheduler.Totals(); tot.Admitted != 0 {
			t.Errorf("budget %d: the cross join was admitted: %+v", budget, tot)
		}
		if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
			t.Errorf("budget %d: %v", budget, err)
		}
		assertNoSpillFiles(t, spillRoot)
	}
}

// A worker failure in the middle of a spilling run must cancel cleanly:
// the injected error surfaces, no goroutines leak, and — critically for
// the spill subsystem — no temp files survive the run.
func TestCancelMidSpillLeavesNoTempFiles(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(12)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected mid-spill failure")
	spillRoot := t.TempDir()
	ropts := Options{DOP: 4, Broker: mem.NewBroker(tinyBudget), SpillDir: spillRoot}
	ropts.injectOp = func(pl *plan.Pipeline, worker int, _ bool, op PhysicalOperator) PhysicalOperator {
		// Fail the result pipeline's workers: by then the hash builds have
		// spilled their partitions and the probe side is mid-flight.
		if pl.Sink == plan.SinkResult {
			return &failAfterOp{child: op, err: injected, after: 2}
		}
		return op
	}
	before := runtime.NumGoroutine()
	_, err = Run(ds.DB, block, res.Plan, ropts)
	if !errors.Is(err, injected) {
		t.Fatalf("error = %v, want the injected error", err)
	}
	waitGoroutines(t, before)
	assertNoSpillFiles(t, spillRoot)
}

// failAfterOp passes `after` batches through, then fails.
type failAfterOp struct {
	child PhysicalOperator
	err   error
	after int
	seen  int
}

func (o *failAfterOp) Open() error  { return o.child.Open() }
func (o *failAfterOp) Close() error { return o.child.Close() }
func (o *failAfterOp) NextBatch() (*RowSet, error) {
	if o.seen >= o.after {
		return nil, o.err
	}
	o.seen++
	return o.child.NextBatch()
}
