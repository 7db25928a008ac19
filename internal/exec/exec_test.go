package exec

import (
	"fmt"
	"slices"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/cost"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// fixture builds a small two/three-table database with known join results:
// fact(fk, v) 1000 rows referencing dim(pk, tag) 100 rows, dim filtered by
// tag < 10 keeps pks 0..9, fact rows with fk%100 in 0..9 survive the join.
func fixture(t *testing.T) (*storage.Database, *catalog.Schema) {
	t.Helper()
	db := storage.NewDatabase()
	schema := catalog.NewSchema()

	nFact, nDim := 1000, 100
	fk := make([]int64, nFact)
	fv := make([]int64, nFact)
	for i := range fk {
		fk[i] = int64(i % nDim)
		fv[i] = int64(i)
	}
	fact, err := storage.NewTable("fact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: fk},
		{Name: "v", Kind: catalog.Int64, Ints: fv},
	})
	if err != nil {
		t.Fatal(err)
	}
	pk := make([]int64, nDim)
	tag := make([]int64, nDim)
	for i := range pk {
		pk[i] = int64(i)
		tag[i] = int64(i)
	}
	dim, err := storage.NewTable("dim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: pk},
		{Name: "tag", Kind: catalog.Int64, Ints: tag},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*storage.Table{fact, dim} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		meta := storage.Analyze(tb)
		if tb.Name == "dim" {
			meta.PrimaryKey = "pk"
		}
		if err := schema.AddTable(meta); err != nil {
			t.Fatal(err)
		}
	}
	return db, schema
}

func factDimBlock(schema *catalog.Schema, jt query.JoinType) *query.Block {
	sub := query.RelSet(0)
	if jt != query.Inner {
		sub = query.NewRelSet(1)
	}
	return &query.Block{
		Name: "fd",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("fact")},
			{Alias: "d", Table: schema.MustTable("dim"), Pred: query.CmpInt{Col: "tag", Op: query.LT, Val: 10}},
		},
		Clauses: []query.JoinClause{
			{Type: jt, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk", SubRels: sub},
		},
	}
}

func optimizeAndRun(t *testing.T, db *storage.Database, b *query.Block, mode optimizer.Mode, dop int) (*plan.Plan, *Result) {
	t.Helper()
	opts := optimizer.Options{
		Mode: mode,
		Cost: cost.Paper(),
		Heuristics: optimizer.Heuristics{
			H1LargerOnly: true, H2MinApplyRows: 10, H3FKLosslessPK: true,
			H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9,
		},
		MaxPlansPerSet: 100_000,
	}
	res, err := optimizer.Optimize(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(db, b, res.Plan, Options{DOP: dop})
	if err != nil {
		t.Fatalf("exec (%s): %v\nplan:\n%s", mode, err, res.Plan.Explain())
	}
	return res.Plan, r
}

func TestInnerJoinCorrectness(t *testing.T) {
	db, schema := fixture(t)
	for _, dop := range []int{1, 4} {
		b := factDimBlock(schema, query.Inner)
		for _, mode := range []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO} {
			_, r := optimizeAndRun(t, db, b, mode, dop)
			// 10 surviving dim rows × 10 fact rows each.
			if r.Rows != 100 {
				t.Fatalf("mode %s dop %d: join rows = %d, want 100", mode, dop, r.Rows)
			}
		}
	}
}

func TestSemiJoinCorrectness(t *testing.T) {
	db, schema := fixture(t)
	for _, dop := range []int{1, 4} {
		b := factDimBlock(schema, query.Semi)
		for _, mode := range []optimizer.Mode{optimizer.NoBF, optimizer.BFCBO} {
			_, r := optimizeAndRun(t, db, b, mode, dop)
			if r.Rows != 100 {
				t.Fatalf("mode %s dop %d: semi rows = %d, want 100", mode, dop, r.Rows)
			}
		}
	}
}

func TestAntiJoinCorrectness(t *testing.T) {
	db, schema := fixture(t)
	for _, dop := range []int{1, 4} {
		b := factDimBlock(schema, query.Anti)
		_, r := optimizeAndRun(t, db, b, optimizer.NoBF, dop)
		if r.Rows != 900 {
			t.Fatalf("dop %d: anti rows = %d, want 900", dop, r.Rows)
		}
	}
}

func TestBloomFilterDoesNotChangeResults(t *testing.T) {
	db, schema := fixture(t)
	base := factDimBlock(schema, query.Inner)
	_, noBF := optimizeAndRun(t, db, base, optimizer.NoBF, 4)
	pCBO, withBF := optimizeAndRun(t, db, factDimBlock(schema, query.Inner), optimizer.BFCBO, 4)
	if noBF.Rows != withBF.Rows {
		t.Fatalf("BF changed results: %d vs %d\n%s", noBF.Rows, withBF.Rows, pCBO.Explain())
	}
	if pCBO.CountBlooms() == 0 {
		t.Fatalf("expected a Bloom filter in this plan:\n%s", pCBO.Explain())
	}
	// The filter must actually have filtered: tested ≥ passed, passed well
	// below tested (only ~10% of fact rows match filtered dim).
	if len(withBF.BloomStats) == 0 {
		t.Fatal("no bloom runtime stats recorded")
	}
	st := withBF.BloomStats[0]
	if st.Tested == 0 || st.Passed >= st.Tested {
		t.Fatalf("bloom did not filter: %+v", st)
	}
	if float64(st.Passed) > 0.3*float64(st.Tested) {
		t.Fatalf("bloom pass rate too high: %+v", st)
	}
	if st.Inserted == 0 || st.Saturation <= 0 {
		t.Fatalf("bloom build stats missing: %+v", st)
	}
}

func TestScanActualsReflectBloomReduction(t *testing.T) {
	db, schema := fixture(t)
	p, r := optimizeAndRun(t, db, factDimBlock(schema, query.Inner), optimizer.BFCBO, 2)
	for _, s := range p.Scans() {
		if s.Alias != "f" {
			continue
		}
		actual := r.ActualFor(s)
		if actual < 0 {
			t.Fatal("no actual recorded for fact scan")
		}
		if len(s.ApplyBlooms) > 0 && actual >= 1000 {
			t.Fatalf("bloom-filtered scan emitted %v rows of 1000", actual)
		}
	}
	if r.ActualFor(p.Root) != float64(r.Rows) {
		t.Fatalf("root actual %v != output %d", r.ActualFor(p.Root), r.Rows)
	}
}

// Every join type runs as the hash join in the same pipelines at every DOP
// and budget, and returns the tuples the reference computes.
func TestEveryJoinTypeMatchesReference(t *testing.T) {
	db, schema := fixture(t)
	mkScan := func(rel int, alias, table string, pred query.Predicate) *plan.Scan {
		return &plan.Scan{Rel: rel, Alias: alias, Table: table, Pred: pred, Rows: 1, Cost: 1}
	}
	for _, jt := range []query.JoinType{query.Inner, query.Semi, query.Anti, query.Left} {
		b := factDimBlock(schema, jt)
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		root := &plan.Join{
			JoinType: jt,
			Outer:    mkScan(0, "f", "fact", nil),
			Inner:    mkScan(1, "d", "dim", query.CmpInt{Col: "tag", Op: query.LT, Val: 10}),
			Conds:    []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
		}
		p := &plan.Plan{Root: root, Mode: "manual"}
		ref, refRows, err := runRows(db, b, p, Options{Legacy: true})
		if err != nil {
			t.Fatalf("%s: reference: %v", jt, err)
		}
		if jt == query.Inner && ref.Rows != 100 {
			t.Fatalf("%s: reference rows = %d, want 100", jt, ref.Rows)
		}
		var layout []string
		for _, dop := range []int{1, 4} {
			for _, budget := range []int64{0, tinyBudget} {
				what := fmt.Sprintf("%s dop %d budget %d", jt, dop, budget)
				r, rows, err := runRows(db, b, p, Options{DOP: dop, Broker: mem.NewBroker(budget), SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameTuples(t, what, canonicalRows(rows), canonicalRows(refRows))
				var got []string
				for _, ps := range r.Pipelines {
					got = append(got, ps.Label)
				}
				if layout == nil {
					layout = got
				} else if !slices.Equal(got, layout) {
					t.Errorf("%s: pipelines %q, want %q", what, got, layout)
				}
			}
		}
	}
}

// Duplicate keys on both sides: a join must emit the full product of
// equal-key runs, in the engine and in the reference.
func TestDuplicateKeyProduct(t *testing.T) {
	db := storage.NewDatabase()
	mk := func(name string, keys []int64) *storage.Table {
		tb, err := storage.NewTable(name, []storage.Column{{Name: "k", Kind: catalog.Int64, Ints: keys}})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	a := mk("a", []int64{1, 1, 2, 3, 3, 3})
	bt := mk("b", []int64{1, 3, 3, 4})
	schema := catalog.NewSchema()
	if err := schema.AddTable(storage.Analyze(a)); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddTable(storage.Analyze(bt)); err != nil {
		t.Fatal(err)
	}
	b := &query.Block{
		Name: "dup",
		Relations: []query.Relation{
			{Alias: "a", Table: schema.MustTable("a")},
			{Alias: "b", Table: schema.MustTable("b")},
		},
		Clauses: []query.JoinClause{{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"}},
	}
	want := 2*1 + 3*2 // key 1: 2x1, key 3: 3x2
	root := &plan.Join{
		JoinType: query.Inner,
		Outer:    &plan.Scan{Rel: 0, Alias: "a", Table: "a"},
		Inner:    &plan.Scan{Rel: 1, Alias: "b", Table: "b"},
		Conds:    []plan.Cond{{OuterRel: 0, OuterCol: "k", InnerRel: 1, InnerCol: "k"}},
	}
	for _, opts := range []Options{{DOP: 2}, {Legacy: true}} {
		r, err := Run(db, b, &plan.Plan{Root: root}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows != want {
			t.Fatalf("legacy %v: rows = %d, want %d", opts.Legacy, r.Rows, want)
		}
	}
}

func TestMissingBloomIsPlanBug(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	root := &plan.Scan{Rel: 0, Alias: "f", Table: "fact", ApplyBlooms: []int{42}}
	p := &plan.Plan{Root: root, Blooms: []plan.BloomSpec{{ID: 42, ApplyRel: 0, ApplyCol: "fk", BuildRel: 1, BuildCol: "pk"}}}
	if _, err := Run(db, b, p, Options{}); err == nil {
		t.Fatal("expected error for never-built Bloom filter")
	}
}

func TestRowSetBasics(t *testing.T) {
	rs := NewRowSet(query.NewRelSet(0, 2))
	if rs.Len() != 0 {
		t.Fatal("new row set not empty")
	}
	src := NewRowSet(query.NewRelSet(0, 2))
	src.cols[0] = []int32{7}
	src.cols[1] = []int32{9}
	rs.appendBatch(src)
	if rs.Len() != 1 || rs.Col(0)[0] != 7 || rs.Col(2)[0] != 9 {
		t.Fatalf("appendBatch wrong: %+v", rs.cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Col on missing relation should panic")
		}
	}()
	rs.Col(1)
}
