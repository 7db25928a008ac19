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
// one- and two-column specs, every DOP, with and without the join's hash
// vector, and serial or parallel inserts, both must leave the same
// strategy, the same Inserted count and the same bits.
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
			for _, dop := range []int{1, 2, 4} {
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
				chunked := newBloomSet(tables, res.Plan.Blooms, dop)
				if err := chunked.build(j, g.buildRows(), g.feedBuildChunks); err != nil {
					t.Fatalf("Q%d dop %d: chunk feeder: %v", num, dop, err)
				}
				ex.cleanupSpill()
				for _, v := range []struct {
					name    string
					hashes  []uint64
					workers int
				}{{"serial", nil, 1}, {"parallel", nil, dop}, {"parallel+hashes", joinHashes, dop}} {
					vec := newBloomSet(tables, res.Plan.Blooms, dop)
					if err := vec.build(j, inner.Len(), vec.feedVector(inner, v.hashes, v.workers)); err != nil {
						t.Fatalf("Q%d dop %d %s: vector feeder: %v", num, dop, v.name, err)
					}
					for _, id := range j.BuildBlooms {
						a, b := vec.built[id], chunked.built[id]
						if a.st.Strategy != b.st.Strategy || a.st.Inserted != b.st.Inserted ||
							a.st.Inserted != uint64(inner.Len()) {
							t.Errorf("Q%d dop %d %s: filter %d stats diverge: vector %+v, chunks %+v (%d build rows)",
								num, dop, v.name, id, *a.st, *b.st, inner.Len())
						}
						if !reflect.DeepEqual(a.bloomTarget, b.bloomTarget) {
							t.Errorf("Q%d dop %d %s: filter %d bit arrays diverge", num, dop, v.name, id)
						}
					}
				}
			}
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
