package exec

import (
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
// spill chunks (grace sink). For the Bloom-building joins of Q3/Q7/Q9,
// one- and two-column specs, the vector build without a key column (the
// reference's) is the yardstick: the chunk feeder and the vector feeder
// handed the join's gathered key column (the in-memory sink's) must leave
// the same Inserted count and the same bits.
func TestBloomBuildFeedersAgree(t *testing.T) {
	ds := equivalenceDataset(t)
	cols := map[int]int{} // filter column count -> joins covered
	for _, num := range []int{3, 7, 9} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		opts.Heuristics.MultiColumn = true
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
			side, err := Run(ds.DB, block, &plan.Plan{Root: stripBlooms(j.Inner)}, Options{DOP: 1})
			if err != nil {
				t.Fatalf("Q%d: build side: %v", num, err)
			}
			inner := side.Out
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
			// The chunk feeder, through real partition files.
			ex := &executor{tables: tables, spillParent: t.TempDir(), queryTag: "feeders", budget: 1}
			g, err := ex.newGraceBuild(j, float64(inner.Len()), &spillCounters{})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.routeBuild(inner); err != nil {
				t.Fatal(err)
			}
			if err := g.finishBuild(); err != nil {
				t.Fatal(err)
			}
			agree("chunks", build("chunks", g.feedBuildChunks, g.buildRows()))
			ex.cleanupSpill()
			agree("keys", build("keys", feedVector(inner, joinKeys), inner.Len()))
			for _, id := range j.BuildBlooms {
				n := 1
				if res.Plan.BloomByID(id).BuildCol2 != "" {
					n = 2
				}
				cols[n]++
			}
		}
	}
	if cols[1] == 0 || cols[2] == 0 {
		t.Fatalf("coverage: %d one-column and %d two-column filters; want both", cols[1], cols[2])
	}
}

// TestBloomStatsIndependentOfDOP: a filter's bits, and so every figure of
// its runtime record, are a function of (database, plan). The 22 TPC-H
// blocks under the engine profile × {BF-Post, BF-CBO} report the same
// BloomStats at DOP 1, 2, 4 and 8, and the reference reports them too.
func TestBloomStatsIndependentOfDOP(t *testing.T) {
	ds := equivalenceDataset(t)
	filters := 0
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range []optimizer.Mode{optimizer.BFPost, optimizer.BFCBO} {
			opts := optimizer.DefaultOptions(0.01)
			opts.Mode = mode
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			ref, err := Run(ds.DB, block, res.Plan, Options{Legacy: true})
			if err != nil {
				t.Fatalf("Q%d %s: reference: %v", q.Num, mode, err)
			}
			filters += len(ref.BloomStats)
			for _, dop := range []int{1, 2, 4, 8} {
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: %v", q.Num, mode, dop, err)
				}
				if !reflect.DeepEqual(r.BloomStats, ref.BloomStats) {
					t.Errorf("Q%d %s dop %d: BloomStats diverge from the reference:\n engine    %v\n reference %v",
						q.Num, mode, dop, r.BloomStats, ref.BloomStats)
				}
			}
		}
	}
	if filters == 0 {
		t.Fatal("coverage: no plan ran a Bloom filter")
	}
}

// TestBloomBuildKeysPassScan: the build and apply sides of every filter
// hash alike, for one- and two-column filters. For each Bloom-building join
// of the 22 TPC-H blocks under BF-CBO, with Heuristics.MultiColumn off and
// on, at DOP 1 and 4, the real hash-build sink populates the join's filters
// from the build side (as a run does: bloomSet.build, fed the sink's
// gathered join keys), and the real scan kernel then tests a table whose
// apply column(s) hold every build row's key(s). Every row must pass: a
// Bloom filter has no false negatives, and a mismatch between the two
// sides' hashing shows up here as one.
func TestBloomBuildKeysPassScan(t *testing.T) {
	ds := equivalenceDataset(t)
	const morsel = 256
	cols := map[int]int{} // filter column count -> filters checked
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		tables, err := resolveTables(ds.DB, block)
		if err != nil {
			t.Fatal(err)
		}
		for _, multi := range []bool{false, true} {
			opts := optimizer.DefaultOptions(0.01)
			opts.Mode = optimizer.BFCBO
			opts.Heuristics.MultiColumn = multi
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("Q%d: optimize: %v", q.Num, err)
			}
			for _, j := range res.Plan.Joins() {
				if len(j.BuildBlooms) == 0 {
					continue
				}
				for _, dop := range []int{1, 4} {
					side, err := Run(ds.DB, block, &plan.Plan{Root: stripBlooms(j.Inner)}, Options{DOP: dop})
					if err != nil {
						t.Fatalf("Q%d: build side: %v", q.Num, err)
					}
					inner := side.Out
					ex := &executor{dop: dop, morsel: morsel, tables: tables,
						blooms: newBloomSet(tables, res.Plan.Blooms),
						builds: make(map[*plan.Join]*hashTable),
						memq:   mem.NewBroker(0).NewQuery()}
					snk := &hashBuildSink{partsSink: newPartsSink(inner.rels, dop),
						ex: ex, j: j, estRows: float64(inner.Len()),
						res: ex.memq.Reserve(), rec: &spillCounters{}}
					for lo, w := 0, 0; lo < inner.Len(); lo, w = lo+morsel, (w+1)%dop {
						b := NewRowSet(inner.rels)
						for c := range b.cols {
							b.cols[c] = inner.cols[c][lo:min(lo+morsel, inner.Len())]
						}
						snk.consume(w, &Batch{rows: b})
					}
					if err := snk.finish(); err != nil {
						t.Fatalf("Q%d: build sink: %v", q.Num, err)
					}
					for _, id := range j.BuildBlooms {
						spec := ex.blooms.specs[id]
						if n := keysPassingScan(t, ex.blooms, spec, inner.Col(spec.BuildRel), dop); n != inner.Len() {
							t.Errorf("Q%d multi=%v dop %d: filter %d (%s.%v -> %s.%v) passed %d of its %d build keys",
								q.Num, multi, dop, id,
								block.Relations[spec.BuildRel].Alias, []string{spec.BuildCol, spec.BuildCol2},
								block.Relations[spec.ApplyRel].Alias, []string{spec.ApplyCol, spec.ApplyCol2}, n, inner.Len())
						}
						if spec.BuildCol2 != "" {
							cols[2]++
						} else {
							cols[1]++
						}
					}
				}
			}
		}
	}
	if cols[1] == 0 || cols[2] == 0 {
		t.Fatalf("coverage: %d one-column and %d two-column filters; want both", cols[1], cols[2])
	}
}

// keysPassingScan runs the build rows ids' keys of filter spec, placed in
// the apply column(s) of a stand-in apply table, through dop concurrent
// scan workers applying the built filter, and returns the rows that pass.
func keysPassingScan(t *testing.T, bs *bloomSet, spec plan.BloomSpec, ids []int32, dop int) int {
	t.Helper()
	built := bs.built[spec.ID]
	key1, key2 := make([]int64, len(ids)), make([]int64, len(ids))
	for i, rid := range ids {
		key1[i] = built.vals[rid]
		if built.vals2 != nil {
			key2[i] = built.vals2[rid]
		}
	}
	cs := []storage.Column{{Name: spec.ApplyCol, Kind: catalog.Int64, Ints: key1}}
	if spec.ApplyCol2 != "" {
		cs = append(cs, storage.Column{Name: spec.ApplyCol2, Kind: catalog.Int64, Ints: key2})
	}
	tbl, err := storage.NewTable("apply", cs)
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
