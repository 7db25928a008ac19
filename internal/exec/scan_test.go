package exec

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/cost"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// Scan counters on a sorted 40-block column with a narrow range predicate:
// every morsel is claimed and every row of it reaches the predicate chain,
// whatever the morsel size (smaller or larger than the default, the last
// morsel short), with results identical to the reference's. The predicate
// chain, then the Bloom filters, are the only way a scan drops rows.
func TestScanCountersSortedColumn(t *testing.T) {
	const n = 40 * DefaultMorselSize
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(i)
	}
	tbl, err := storage.NewTable("ztab", []storage.Column{
		{Name: "v", Kind: catalog.Int64, Ints: ints},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	if err := schema.AddTable(storage.Analyze(tbl)); err != nil {
		t.Fatal(err)
	}
	pred := query.BetweenInt{Col: "v", Lo: 100, Hi: 300}
	b := &query.Block{
		Name:      "zscan",
		Relations: []query.Relation{{Alias: "z", Table: schema.MustTable("ztab")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "z", Table: "ztab", Pred: pred}}
	for _, dop := range []int{1, 4} {
		_, ref, err := runRows(db, b, p, Options{DOP: dop, Legacy: true})
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalRows(ref)
		if len(want) != 201 {
			t.Fatalf("dop %d: reference rows = %d, want 201", dop, len(want))
		}
		for _, morsel := range []int{0, 64, 1500, 5000} {
			r, rows, err := runRows(db, b, p, Options{DOP: dop, morselSize: morsel})
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalRows(rows)
			if len(got) != len(want) {
				t.Fatalf("dop %d morsel %d: rows = %d, want %d", dop, morsel, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dop %d morsel %d: row %d = %s, want %s", dop, morsel, i, got[i], want[i])
				}
			}
			if len(r.Scans) != 1 {
				t.Fatalf("dop %d morsel %d: %d scan runtimes, want 1", dop, morsel, len(r.Scans))
			}
			sc := r.Scans[0]
			size := morsel
			if size == 0 {
				size = DefaultMorselSize
			}
			if wantMorsels := int64((n + size - 1) / size); sc.Morsels != wantMorsels {
				t.Fatalf("dop %d morsel %d: Morsels = %d, want %d", dop, morsel, sc.Morsels, wantMorsels)
			}
			if len(sc.Preds) != 1 || sc.Preds[0].In != n || sc.Preds[0].Out != 201 {
				t.Fatalf("dop %d morsel %d: predicate counters %+v, want one kernel with In=%d Out=201",
					dop, morsel, sc.Preds, n)
			}
			if sc.ZoneSkipped != 0 {
				t.Fatalf("dop %d morsel %d: ZoneSkipped = %d, want 0", dop, morsel, sc.ZoneSkipped)
			}
		}
	}
}

// sizeOp passes its child's batches through and records each one's size.
type sizeOp struct {
	child PhysicalOperator
	sizes []int
}

func (o *sizeOp) Open() error  { return o.child.Open() }
func (o *sizeOp) Close() error { return o.child.Close() }
func (o *sizeOp) NextBatch() (*RowSet, error) {
	b, err := o.child.NextBatch()
	if b != nil {
		o.sizes = append(o.sizes, b.Len())
	}
	return b, err
}

// batchSizes keeps the sizeOps it puts into workers' chains. Its hook, an
// injectOp hook, puts one directly above every worker's scan, below any
// probe; wrap puts one wherever a caller's own hook wants it.
type batchSizes struct {
	mu  sync.Mutex
	ops []*sizeOp
}

func (s *batchSizes) hook(_ *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
	p, ok := op.(*probeOp)
	if !ok {
		return s.wrap(op)
	}
	for {
		q, ok := p.child.(*probeOp)
		if !ok {
			p.child = s.wrap(p.child)
			return op
		}
		p = q
	}
}

// wrap puts a kept sizeOp above op.
func (s *batchSizes) wrap(op PhysicalOperator) PhysicalOperator {
	rec := &sizeOp{child: op}
	s.mu.Lock()
	s.ops = append(s.ops, rec)
	s.mu.Unlock()
	return rec
}

// A scan fills its batches: behind a 1 % predicate, and behind a Bloom
// filter that passes about 1 % of its rows, every batch a worker's scan
// hands out holds at least a morsel's worth of rows, except that worker's
// last, at a tiny and at the default morsel size, at DOP 1 and 4. A batch
// spans many morsels, and yet the tuples equal the reference's, and the
// per-morsel counters do not move: each scan claims ceil(rows/morsel)
// morsels, its predicates see the same rows in and out at every morsel
// size and DOP, and the Bloom filters report the reference's BloomStats.
func TestScanFillsBatches(t *testing.T) {
	const nFact, nDim, keep = 1 << 20, 1 << 14, 164 // keep/nDim ≈ 1 %
	keys := make([]int64, nFact)
	for i := range keys {
		keys[i] = int64(i * 7919 % nDim) // scattered over every morsel
	}
	pk := make([]int64, nDim)
	for i := range pk {
		pk[i] = int64(i)
	}
	db := storage.NewDatabase()
	schema := catalog.NewSchema()
	for _, c := range []struct {
		name string
		col  []int64
	}{{"fact", keys}, {"dim", pk}} {
		tbl, err := storage.NewTable(c.name, []storage.Column{{Name: "k", Kind: catalog.Int64, Ints: c.col}})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		meta := storage.Analyze(tbl)
		if c.name == "dim" {
			meta.PrimaryKey = "k"
		}
		if err := schema.AddTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	few := query.CmpInt{Col: "k", Op: query.LT, Val: keep}

	predBlock := &query.Block{
		Name:      "fill-pred",
		Relations: []query.Relation{{Alias: "f", Table: schema.MustTable("fact")}},
	}
	predPlan := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "f", Table: "fact", Pred: few}}
	bloomBlock := &query.Block{
		Name: "fill-bloom",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("fact")},
			{Alias: "d", Table: schema.MustTable("dim"), Pred: few},
		},
		Clauses: []query.JoinClause{{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"}},
	}
	res, err := optimizer.Optimize(bloomBlock, optimizer.Options{
		Mode: optimizer.BFCBO, Cost: cost.Paper(),
		Heuristics: optimizer.Heuristics{H1LargerOnly: true, H2MinApplyRows: 10,
			H3FKLosslessPK: true, H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9},
		MaxPlansPerSet: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Plan.Scans() {
		if s.Table == "fact" && len(s.ApplyBlooms) == 0 {
			t.Fatalf("the fact scan applies no Bloom filter:\n%s", res.Plan.Explain())
		}
	}

	for _, c := range []struct {
		name  string
		block *query.Block
		p     *plan.Plan
	}{{"predicate", predBlock, predPlan}, {"bloom", bloomBlock, res.Plan}} {
		ref, refRows, err := runRows(db, c.block, c.p, Options{Legacy: true})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		want := canonicalRows(refRows)
		var preds []query.PredCount
		for _, morsel := range []int{64, DefaultMorselSize} {
			var scans []ScanRuntime
			for _, dop := range []int{1, 4} {
				what := fmt.Sprintf("%s morsel %d dop %d", c.name, morsel, dop)
				rec := &batchSizes{}
				r, rows, err := runRows(db, c.block, c.p, Options{DOP: dop, morselSize: morsel, injectOp: rec.hook})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameTuples(t, what, canonicalRows(rows), want)
				full := 0
				for _, op := range rec.ops {
					for i, n := range op.sizes {
						if i < len(op.sizes)-1 && n < morsel {
							t.Fatalf("%s: a worker's batch %d of %d holds %d rows, below the morsel", what, i, len(op.sizes), n)
						}
						if n >= morsel {
							full++
						}
					}
				}
				if full == 0 {
					t.Fatalf("%s: no scan handed out a full batch: the test lost its subject", what)
				}
				if !reflect.DeepEqual(r.BloomStats, ref.BloomStats) {
					t.Errorf("%s: BloomStats %v, the reference's %v", what, r.BloomStats, ref.BloomStats)
				}
				for _, sc := range r.Scans {
					n := map[string]int64{"f": nFact, "d": nDim}[sc.Alias]
					if sc.Morsels != (n+int64(morsel)-1)/int64(morsel) {
						t.Errorf("%s: scan %s claimed %d morsels of its %d rows", what, sc.Alias, sc.Morsels, n)
					}
				}
				if scans == nil {
					scans = r.Scans
				} else if !reflect.DeepEqual(r.Scans, scans) {
					t.Errorf("%s: scan counters %v, dop 1's %v", what, r.Scans, scans)
				}
				var p []query.PredCount
				for _, sc := range r.Scans {
					p = append(p, sc.Preds...)
				}
				if preds == nil {
					preds = p
				} else if !reflect.DeepEqual(p, preds) {
					t.Errorf("%s: predicate counters %v, morsel 64's %v", what, p, preds)
				}
			}
		}
	}
}

// EXPLAIN ANALYZE surfaces the scan's morsel and selectivity counters, and
// each probe's input rows per batch.
func TestExplainScanCounters(t *testing.T) {
	ds := equivalenceDataset(t)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	for _, tc := range []struct {
		num  int
		want []string
	}{
		{6, []string{"morsels=", "pred "}},
		{3, []string{"morsels=", "rows/batch="}},
	} {
		q, _ := tpch.Get(tc.num)
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(ds.DB, block, res.Plan, Options{DOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		out := r.ExplainAnalyze(res.Plan)
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("Q%d: explain analyze missing %q:\n%s", tc.num, w, out)
			}
		}
		if joins := len(res.Plan.Joins()); strings.Count(out, "rows/batch=") != joins {
			t.Fatalf("Q%d: %d rows/batch fields for %d probes:\n%s", tc.num, strings.Count(out, "rows/batch="), joins, out)
		}
	}
}

// scanBatches records, per scan, the sizes of the batches its workers'
// scans hand out, through batchSizes's hook.
type scanBatches struct {
	mu  sync.Mutex
	ops map[*plan.Scan][]*sizeOp
}

func (s *scanBatches) hook(pl *plan.Pipeline, w int, last bool, op PhysicalOperator) PhysicalOperator {
	var rec batchSizes
	op = rec.hook(pl, w, last, op)
	s.mu.Lock()
	s.ops[pl.Source] = append(s.ops[pl.Source], rec.ops...)
	s.mu.Unlock()
	return op
}

// A scan folds its counters once per batch, and they stay exact: over
// TPC-H blocks under BF-CBO, whose scans apply predicates and Bloom
// filters, at DOP 1 and 4 and at a morsel size that makes batches span
// many morsels, each scan's OpStat.Batches and ScanRuntime.Morsels are the
// morsels it claimed, RowsIn its table's rows and RowsOut the rows of the
// batches it handed out.
func TestScanCountsExact(t *testing.T) {
	ds := equivalenceDataset(t)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	for _, num := range []int{3, 6, 9, 19} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, dop := range []int{1, 4} {
			for _, morsel := range []int{64, DefaultMorselSize} {
				what := fmt.Sprintf("Q%d dop %d morsel %d", num, dop, morsel)
				rec := &scanBatches{ops: map[*plan.Scan][]*sizeOp{}}
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop, morselSize: morsel, injectOp: rec.hook})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for _, s := range res.Plan.Scans() {
					st := r.StatFor(s)
					if st == nil {
						t.Fatalf("%s: no OpStat for scan %s", what, s.Alias)
					}
					var sc *ScanRuntime
					for i := range r.Scans {
						if r.Scans[i].Alias == s.Alias {
							sc = &r.Scans[i]
						}
					}
					tbl, err := ds.DB.Table(s.Table)
					if err != nil {
						t.Fatal(err)
					}
					rows := int64(tbl.NumRows())
					morsels := (rows + int64(morsel) - 1) / int64(morsel)
					var kept int64
					for _, op := range rec.ops[s] {
						for _, n := range op.sizes {
							kept += int64(n)
						}
					}
					if sc == nil || st.Batches != morsels || sc.Morsels != morsels {
						t.Errorf("%s: scan %s: Batches %d, ScanRuntime %+v, want %d morsels", what, s.Alias, st.Batches, sc, morsels)
					}
					if st.RowsIn != rows || st.RowsOut != kept {
						t.Errorf("%s: scan %s: rows in %d out %d, want %d in and the %d rows of its batches out",
							what, s.Alias, st.RowsIn, st.RowsOut, rows, kept)
					}
				}
			}
		}
	}
}

// A batch that the stop flag cuts short still folds the morsels it
// evaluated: a scan whose predicate keeps one row in 8 192 fills a batch
// of 64-row morsels only after 8 192 of them, and the stop flag, set once
// the scan has claimed 64, ends the batch long before that. NextBatch
// then returns no batch, and the scan's counters hold every morsel it
// claimed, every row of them and the rows they kept.
func TestScanStopFoldsItsMorsels(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the stop flag is set by a second goroutine while the scan runs")
	}
	const rows, morsel, every = 1 << 20, 64, 8192
	vals := make([]int64, rows)
	for i := 0; i < rows; i += every {
		vals[i] = 1
	}
	tbl, err := storage.NewTable("stop", []storage.Column{{Name: "v", Kind: catalog.Int64, Ints: vals}})
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := query.Compile(query.CmpInt{Col: "v", Op: query.EQ, Val: 1}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 10; try++ {
		var stop atomic.Bool
		src := &scanSource{
			s: &plan.Scan{Alias: "s", Table: "stop"}, kernels: kernels, preds: len(kernels),
			n: rows, morsel: morsel, stats: &opStats{}, stop: &stop,
			in: make([]atomic.Int64, len(kernels)), out: make([]atomic.Int64, len(kernels)),
		}
		op := &scanOp{src: src}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		ready := make(chan struct{})
		go func() {
			close(ready)
			for src.cursor.Load() < 64*morsel {
			}
			stop.Store(true)
		}()
		<-ready
		b, err := op.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if b != nil {
			continue // the stop came after the batch filled: try again
		}
		claimed := src.cursor.Load()
		st, rt := src.stats.snapshot(), src.runtime()
		keptRows := (claimed + every - 1) / every
		if st.Batches != claimed/morsel || rt.Morsels != claimed/morsel || st.RowsIn != claimed || st.RowsOut != keptRows {
			t.Fatalf("stopped after claiming %d rows: Batches %d, Morsels %d, rows in %d out %d; want %d morsels, %d rows in, %d out",
				claimed, st.Batches, rt.Morsels, st.RowsIn, st.RowsOut, claimed/morsel, claimed, keptRows)
		}
		if p := rt.Preds[0]; p.In != claimed || p.Out != keptRows {
			t.Fatalf("stopped after claiming %d rows: predicate counted %+v", claimed, p)
		}
		return
	}
	t.Fatal("the stop flag never cut a batch short in 10 tries")
}
