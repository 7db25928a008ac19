package exec

import (
	"strings"
	"testing"

	"bfcbo/internal/catalog"
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
		ref, err := Run(db, b, p, Options{DOP: dop, Legacy: true})
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalRows(ref.Out)
		if len(want) != 201 {
			t.Fatalf("dop %d: reference rows = %d, want 201", dop, len(want))
		}
		for _, morsel := range []int{0, 64, 1500, 5000} {
			r, err := Run(db, b, p, Options{DOP: dop, morselSize: morsel})
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalRows(r.Out)
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

// EXPLAIN ANALYZE surfaces the scan's morsel and selectivity counters.
func TestExplainScanCounters(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(6)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds.DB, block, res.Plan, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := r.ExplainAnalyze(res.Plan)
	if !strings.Contains(out, "morsels=") || !strings.Contains(out, "pred ") {
		t.Fatalf("explain analyze missing scan counters:\n%s", out)
	}
}
