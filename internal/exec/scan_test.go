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

// Zone-map skipping on clustered data: a sorted column with a narrow range
// predicate must eliminate most morsels before any row is touched, with
// results identical to the legacy interpreter's (which never consults a
// zone map) — also when morsels are smaller or larger than a zone block
// and end mid-block.
func TestScanZoneMapSkip(t *testing.T) {
	const n = 40 * storage.ZoneBlockRows
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
			t.Fatalf("dop %d: legacy rows = %d, want 201", dop, len(want))
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
			if sc.Morsels == 0 || sc.ZoneSkipped == 0 || sc.ZoneSkippedRows == 0 {
				t.Fatalf("dop %d morsel %d: empty scan counters: %+v", dop, morsel, sc)
			}
			if len(sc.Preds) != 1 || sc.Preds[0].Out != 201 {
				t.Fatalf("dop %d morsel %d: predicate counters %+v, want one kernel with Out=201", dop, morsel, sc.Preds)
			}
			// Rows [100,300] live in the first zone block; at the default
			// morsel size (one zone block) every other morsel is skippable.
			// Exact counts depend on morsel claiming, but the vast majority
			// of the 40 blocks must be skipped.
			if morsel == 0 && sc.ZoneSkipped < 30 {
				t.Fatalf("dop %d: only %d morsels zone-skipped (%d rows): %+v",
					dop, sc.ZoneSkipped, sc.ZoneSkippedRows, sc)
			}
		}
	}
}

// EXPLAIN surfaces zone-map eligibility at plan time and the skip/
// selectivity counters at run time.
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
	if s := res.Plan.Explain(); !strings.Contains(s, "zonemap[") {
		t.Fatalf("plan explain missing zonemap annotation:\n%s", s)
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
