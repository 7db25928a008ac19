package exec

import (
	"reflect"
	"testing"

	"bfcbo/internal/hashtab"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
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
// one- and two-column specs, the vector build without a hash vector (the
// reference's) is the yardstick: the chunk feeder and the vector feeder
// handed the join's hash vector (the in-memory sink's) must leave the same
// Inserted count and the same bits.
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
			joinHashes := hashtab.HashVec(keyColumn(inner, tables[c0.InnerRel], c0.InnerRel, c0.InnerCol), nil)
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
			agree("hashes", build("hashes", feedVector(inner, joinHashes), inner.Len()))
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
