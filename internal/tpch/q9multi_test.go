package tpch

import (
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
)

// The §5 multi-column extension on the query that motivates it: Q9 joins
// lineitem to partsupp on (partkey, suppkey). With MultiColumn enabled the
// planner must produce a composite filter over that pair, supersede the
// pair's single-column candidates, and return identical results.
func TestQ9MultiColumnComposite(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 20_25})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Get(9)
	run := func(multi bool) (*optimizer.Result, int) {
		opts := optimizer.DefaultOptions(ds.Config.ScaleFactor)
		opts.Heuristics.MultiColumn = multi
		b := q.Build(ds.Schema)
		res, err := optimizer.Optimize(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := exec.Run(ds.DB, b, res.Plan, exec.Options{DOP: 4})
		if err != nil {
			t.Fatalf("multi=%v: %v\n%s", multi, err, res.Plan.Explain())
		}
		return res, r.Out().Len()
	}
	single, rows1 := run(false)
	multi, rows2 := run(true)
	if rows1 != rows2 {
		t.Fatalf("multi-column filters changed Q9 results: %d vs %d", rows1, rows2)
	}
	var composites int
	for _, bf := range multi.Plan.Blooms {
		if bf.ApplyCol2 != "" {
			composites++
			// The composite must cover a genuine two-column pair.
			if bf.BuildCol2 == bf.BuildCol || bf.ApplyCol2 == bf.ApplyCol {
				t.Fatalf("degenerate composite spec: %+v", bf)
			}
		}
	}
	if composites == 0 {
		t.Fatalf("MultiColumn produced no composite filter on Q9:\n%s", multi.Plan.Explain())
	}
	// Subsumption: no single-column filter may target the same relation
	// pair as a composite one.
	for _, bf := range multi.Plan.Blooms {
		if bf.ApplyCol2 != "" {
			continue
		}
		for _, cf := range multi.Plan.Blooms {
			if cf.ApplyCol2 != "" && cf.ApplyRel == bf.ApplyRel && cf.BuildRel == bf.BuildRel {
				t.Fatalf("single-column filter %+v not subsumed by composite %+v", bf, cf)
			}
		}
	}
	if single.Plan.CountBlooms() == 0 {
		t.Fatal("baseline Q9 plan should still have filters")
	}
}
