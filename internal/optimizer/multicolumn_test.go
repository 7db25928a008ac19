package optimizer

import (
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/exec"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// compositeDB builds a Q9-shaped pair: child(c1, c2) rows referencing
// pairs(p1, p2), where pairs is filtered hard. Each child row matches
// exactly one pair row — the composite-FK pattern (lineitem → partsupp)
// where per-column filters are weak but the pair filter is strong.
func compositeDB(t *testing.T) (*storage.Database, *query.Block) {
	t.Helper()
	db := storage.NewDatabase()
	const nPairs = 400 // 20 x values × 20 y values
	p1 := make([]int64, nPairs)
	p2 := make([]int64, nPairs)
	tag := make([]int64, nPairs)
	for i := 0; i < nPairs; i++ {
		p1[i] = int64(i / 20)
		p2[i] = int64(i % 20)
		tag[i] = int64(i)
	}
	pairs, err := storage.NewTable("pairs", []storage.Column{
		{Name: "p1", Kind: catalog.Int64, Ints: p1},
		{Name: "p2", Kind: catalog.Int64, Ints: p2},
		{Name: "tag", Kind: catalog.Int64, Ints: tag},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nChild = 8000
	c1 := make([]int64, nChild)
	c2 := make([]int64, nChild)
	for i := 0; i < nChild; i++ {
		c1[i] = int64((i * 7 % nPairs) / 20)
		c2[i] = int64(i * 7 % nPairs % 20)
	}
	child, err := storage.NewTable("child", []storage.Column{
		{Name: "c1", Kind: catalog.Int64, Ints: c1},
		{Name: "c2", Kind: catalog.Int64, Ints: c2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*storage.Table{pairs, child} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	pm := storage.Analyze(pairs)
	cm := storage.Analyze(child)
	schema := catalog.NewSchema()
	if err := schema.AddTable(pm); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddTable(cm); err != nil {
		t.Fatal(err)
	}
	b := &query.Block{
		Name: "composite",
		Relations: []query.Relation{
			{Alias: "child", Table: cm},
			// Keep 5% of pairs; every x and every y value still appears,
			// so single-column filters pass almost everything.
			{Alias: "pairs", Table: pm, Pred: query.CmpInt{Col: "tag", Op: query.LT, Val: 20}},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "c1", RightRel: 1, RightCol: "p1"},
			{Type: query.Inner, LeftRel: 0, LeftCol: "c2", RightRel: 1, RightCol: "p2"},
		},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return db, b
}

func multiOptions(multi bool) Options {
	o := exampleOptions(BFCBO)
	o.Heuristics.H2MinApplyRows = 100
	o.Heuristics.H6MaxKeepFraction = 0.9
	o.Heuristics.MultiColumn = multi
	return o
}

func TestMultiColumnCandidateMarked(t *testing.T) {
	_, b := compositeDB(t)
	o := newTestOptimizer(t, b, multiOptions(true))
	o.markCandidates()
	var composite *candidate
	for _, c := range o.cands {
		if c.applyCol2 != "" {
			composite = c
		}
	}
	if composite == nil {
		t.Fatalf("no composite candidate marked: %+v", o.cands)
	}
	if composite.applyRel != 0 || composite.buildRel != 1 {
		t.Fatalf("composite direction wrong (H1): %+v", composite)
	}
	if composite.applyCol != "c1" || composite.applyCol2 != "c2" ||
		composite.buildCol != "p1" || composite.buildCol2 != "p2" {
		t.Fatalf("composite columns wrong: %+v", composite)
	}
	// Without the flag, no composite candidates appear.
	o2 := newTestOptimizer(t, b, multiOptions(false))
	o2.markCandidates()
	for _, c := range o2.cands {
		if c.applyCol2 != "" {
			t.Fatalf("composite candidate without MultiColumn flag: %+v", c)
		}
	}
}

// The §5 extension end to end: the composite filter plans, executes
// correctly (same results as every other mode) and filters far more rows
// than the single-column alternative, because every individual x and y
// value survives the pair filter.
func TestMultiColumnFilterEndToEnd(t *testing.T) {
	db, b := compositeDB(t)
	plain, err := Optimize(cloneBlock(b), multiOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Optimize(cloneBlock(b), multiOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	var compositeSpec bool
	for _, bf := range multi.Plan.Blooms {
		if bf.ApplyCol2 != "" {
			compositeSpec = true
		}
	}
	if !compositeSpec {
		t.Fatalf("multi-column plan has no composite filter:\n%s", multi.Plan.Explain())
	}

	rPlain, err := exec.Run(db, b, plain.Plan, exec.Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	rMulti, err := exec.Run(db, b, multi.Plan, exec.Options{DOP: 4})
	if err != nil {
		t.Fatalf("%v\n%s", err, multi.Plan.Explain())
	}
	if rPlain.Out().Len() != rMulti.Out().Len() {
		t.Fatalf("composite filter changed results: %d vs %d", rPlain.Out().Len(), rMulti.Out().Len())
	}
	// The composite filter must be sharply selective: only ~5% of child
	// rows reference a surviving pair.
	for _, st := range rMulti.BloomStats {
		if st.Tested == 0 {
			continue
		}
		rate := float64(st.Passed) / float64(st.Tested)
		if rate > 0.25 {
			t.Fatalf("composite filter too weak: passed %d of %d (%.1f%%)",
				st.Passed, st.Tested, 100*rate)
		}
	}
}
