package exec

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// stripBlooms copies a plan subtree without its Bloom annotations, so a
// build side can be evaluated on its own (its scans may apply filters
// built higher up in the full plan).
func stripBlooms(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Scan:
		c := *t
		c.ApplyBlooms = nil
		return &c
	case *plan.Join:
		c := *t
		c.BuildBlooms = nil
		c.Outer, c.Inner = stripBlooms(t.Outer), stripBlooms(t.Inner)
		return &c
	}
	return n
}

// TestBloomBuildFeedersAgree: bloomSet.build has two feeders — the whole
// build side as one vector (in-memory sink, reference) and a stream of
// spill-file blocks (grace sink). For the Bloom-building joins of Q3/Q7/Q9,
// the vector build without a key column (the reference's) is the yardstick: the block feeder and the vector feeder
// handed the join's gathered key column (the in-memory sink's) must leave
// the same Inserted count and the same bits.
func TestBloomBuildFeedersAgree(t *testing.T) {
	ds := equivalenceDataset(t)
	filters := 0
	for _, num := range []int{3, 7, 9} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		tables, err := resolveTables(ds.DB, block)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Plan.Joins() {
			if len(j.BuildBlooms) == 0 {
				continue
			}
			_, inner, err := runRows(ds.DB, block, &plan.Plan{Root: stripBlooms(j.Inner)}, Options{DOP: 1})
			if err != nil {
				t.Fatalf("Q%d: build side: %v", num, err)
			}
			c0 := j.Conds[0]
			joinKeys := keyColumn(inner, tables[c0.InnerRel], c0.InnerRel, c0.InnerCol)
			build := func(name string, feed func([]*bloomBuild) error, rows int) *bloomSet {
				bs := newBloomSet(tables, res.Plan.Blooms)
				if err := bs.build(j, rows, feed); err != nil {
					t.Fatalf("Q%d %s: %v", num, name, err)
				}
				return bs
			}
			serial := build("serial", feedVector(inner, nil), inner.Len())
			agree := func(name string, got *bloomSet) {
				for _, id := range j.BuildBlooms {
					a, b := got.built[id], serial.built[id]
					if *a.st != *b.st || a.st.Inserted != uint64(inner.Len()) {
						t.Errorf("Q%d %s: filter %d stats diverge: %+v, serial %+v (%d build rows)",
							num, name, id, *a.st, *b.st, inner.Len())
					}
					if !reflect.DeepEqual(a.Filter, b.Filter) {
						t.Errorf("Q%d %s: filter %d bit arrays diverge from the serial build", num, name, id)
					}
				}
			}
			// The block feeder, through real partition files.
			ex := &executor{tables: tables, spillParent: t.TempDir(), queryTag: "feeders", budget: 1}
			g, err := ex.newGraceBuild(j, float64(inner.Len()), &spillCounters{})
			if err != nil {
				t.Fatal(err)
			}
			r := newRouters(&g.build, 1)[0]
			if err := r.route(inner.cols); err != nil {
				t.Fatal(err)
			}
			if err := g.build.finish(); err != nil {
				t.Fatal(err)
			}
			agree("blocks", build("blocks", g.feedBuildBlocks, g.build.rows()))
			ex.cleanupSpill()
			agree("keys", build("keys", feedVector(inner, joinKeys), inner.Len()))
			filters += len(j.BuildBlooms)
		}
	}
	if filters == 0 {
		t.Fatal("coverage: no filter was built")
	}
}

// TestBloomStatsIndependentOfDOP: a filter's bits, and so every figure of
// its runtime record, are a function of (database, plan). The 22 TPC-H
// blocks under the engine profile × {BF-Post, BF-CBO} report the same
// BloomStats at DOP 1, 2, 4 and 8, and the reference, which tests each row
// by itself, reports them too; at least one filter must run.
// The scans' counters are exact counts as well: every DOP reports the
// same morsels and the same per-predicate rows in and out. The morsels are
// small, so each worker of a large scan runs many batches through its
// predicate chain. Against a run at the default morsel size (DOP 2), whose
// morsels and batches are 16 times larger, the filters, the predicates'
// rows in and out and the Work vector are the same, and each scan claims
// ceil(rows/morsel) morsels at either size.
func TestBloomStatsIndependentOfDOP(t *testing.T) {
	ds := equivalenceDataset(t)
	const morsel = 64
	filters := 0
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range []optimizer.Mode{optimizer.BFPost, optimizer.BFCBO} {
			name := fmt.Sprintf("Q%d %s", q.Num, mode)
			opts := optimizer.DefaultOptions(0.01)
			opts.Mode = mode
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("%s: optimize: %v", name, err)
			}
			ref, err := Run(ds.DB, block, res.Plan, Options{Legacy: true})
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			filters += len(ref.BloomStats)
			var scans []ScanRuntime
			var work Work
			for _, dop := range []int{1, 2, 4, 8} {
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop, morselSize: morsel})
				if err != nil {
					t.Fatalf("%s dop %d: %v", name, dop, err)
				}
				if !reflect.DeepEqual(r.BloomStats, ref.BloomStats) {
					t.Errorf("%s dop %d: BloomStats diverge from the reference:\n engine    %v\n reference %v",
						name, dop, r.BloomStats, ref.BloomStats)
				}
				if scans == nil {
					scans, work = r.Scans, r.Work
				} else if !reflect.DeepEqual(r.Scans, scans) {
					t.Errorf("%s dop %d: scan counters diverge from dop 1:\n dop %d %v\n dop 1 %v",
						name, dop, dop, r.Scans, scans)
				}
			}
			r, err := Run(ds.DB, block, res.Plan, Options{DOP: 2})
			if err != nil {
				t.Fatalf("%s default morsel: %v", name, err)
			}
			if !reflect.DeepEqual(r.BloomStats, ref.BloomStats) {
				t.Errorf("%s default morsel: BloomStats diverge from the reference:\n engine    %v\n reference %v",
					name, r.BloomStats, ref.BloomStats)
			}
			if r.Work != work {
				t.Errorf("%s: Work %+v at the default morsel, %+v at morsel %d", name, r.Work, work, morsel)
			}
			if len(r.Scans) != len(scans) {
				t.Fatalf("%s: %d scans at the default morsel, %d at morsel %d", name, len(r.Scans), len(scans), morsel)
			}
			tables := map[int]string{}
			for _, s := range res.Plan.Scans() {
				tables[s.Rel] = s.Table
			}
			for i, sc := range r.Scans {
				tbl, err := ds.DB.Table(tables[sc.Rel])
				if err != nil {
					t.Fatal(err)
				}
				n := int64(tbl.NumRows())
				small := scans[i]
				if sc.Morsels != (n+DefaultMorselSize-1)/DefaultMorselSize || small.Morsels != (n+morsel-1)/morsel {
					t.Errorf("%s scan %s: %d and %d morsels of %d and %d rows over %d rows",
						name, sc.Alias, sc.Morsels, small.Morsels, DefaultMorselSize, morsel, n)
				}
				if !reflect.DeepEqual(sc.Preds, small.Preds) {
					t.Errorf("%s scan %s: predicate counters %v at the default morsel, %v at morsel %d",
						name, sc.Alias, sc.Preds, small.Preds, morsel)
				}
			}
		}
	}
	if filters == 0 {
		t.Fatal("coverage: no filter ran")
	}
}

// TestBloomBuildKeysPassScan: the build and apply sides of every filter
// hash alike. For each Bloom-building join of the 22 TPC-H blocks under
// BF-CBO, at DOP 1 and 4, the real hash-build sink populates the join's
// filters from the build side (as a run does: bloomSet.build, fed the
// sink's gathered join keys), and the real scan kernel then tests a table
// whose apply column holds every build row's key. Every row must pass: a
// Bloom filter has no false negatives, and a mismatch between the two
// sides' hashing shows up here as one.
func TestBloomBuildKeysPassScan(t *testing.T) {
	ds := equivalenceDataset(t)
	const morsel = 256
	filters := 0
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		tables, err := resolveTables(ds.DB, block)
		if err != nil {
			t.Fatal(err)
		}
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", q.Num, err)
		}
		for _, j := range res.Plan.Joins() {
			if len(j.BuildBlooms) == 0 {
				continue
			}
			for _, dop := range []int{1, 4} {
				_, inner, err := runRows(ds.DB, block, &plan.Plan{Root: stripBlooms(j.Inner)}, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d: build side: %v", q.Num, err)
				}
				ex := &executor{dop: dop, morsel: morsel, tables: tables,
					blooms: newBloomSet(tables, res.Plan.Blooms),
					builds: make(map[*plan.Join]*hashTable),
					memq:   mem.NewBroker(0).NewQuery()}
				snk := &hashBuildSink{rels: inner.rels, parts: make([]*RowSet, dop),
					ex: ex, j: j, estRows: float64(inner.Len()),
					res: ex.memq.Reserve(), rec: &spillCounters{}}
				for lo, w := 0, 0; lo < inner.Len(); lo, w = lo+morsel, (w+1)%dop {
					b := NewRowSet(inner.rels)
					for c := range b.cols {
						b.cols[c] = inner.cols[c][lo:min(lo+morsel, inner.Len())]
					}
					snk.consume(w, b)
				}
				if err := snk.finish(); err != nil {
					t.Fatalf("Q%d: build sink: %v", q.Num, err)
				}
				for _, id := range j.BuildBlooms {
					spec := ex.blooms.specs[id]
					if n := keysPassingScan(t, ex.blooms, spec, inner.Col(spec.BuildRel), dop); n != inner.Len() {
						t.Errorf("Q%d dop %d: filter %d (%s.%s -> %s.%s) passed %d of its %d build keys",
							q.Num, dop, id,
							block.Relations[spec.BuildRel].Alias, spec.BuildCol,
							block.Relations[spec.ApplyRel].Alias, spec.ApplyCol, n, inner.Len())
					}
					filters++
				}
			}
		}
	}
	if filters == 0 {
		t.Fatal("coverage: no filter was checked")
	}
}

// keysPassingScan runs the build rows ids' keys of filter spec, placed in
// the apply column of a stand-in apply table, through dop concurrent
// scan workers applying the built filter, and returns the rows that pass.
func keysPassingScan(t *testing.T, bs *bloomSet, spec plan.BloomSpec, ids []int32, dop int) int {
	t.Helper()
	built := bs.built[spec.ID]
	keys := make([]int64, len(ids))
	for i, rid := range ids {
		keys[i] = built.vals[rid]
	}
	tbl, err := storage.NewTable("apply", []storage.Column{{Name: spec.ApplyCol, Kind: catalog.Int64, Ints: keys}})
	if err != nil {
		t.Fatal(err)
	}
	tables := slices.Clone(bs.tables)
	tables[spec.ApplyRel] = tbl
	ex := &executor{morsel: 256, tables: tables,
		blooms: &bloomSet{tables: tables, specs: bs.specs, built: bs.built}}
	src, err := ex.newScanSource(&plan.Scan{Rel: spec.ApplyRel, Alias: "apply", Table: "apply",
		ApplyBlooms: []int{spec.ID}}, &opStats{})
	if err != nil {
		t.Fatal(err)
	}
	rows, errs := make([]int, dop), make([]error, dop)
	var wg sync.WaitGroup
	for w := range dop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[w], errs[w] = drain(&scanOp{src: src})
		}()
	}
	wg.Wait()
	n := 0
	for w := range dop {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		n += rows[w]
	}
	return n
}
