package exec

import (
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// BenchmarkTPCHPass runs one pass of the 22 TPC-H blocks, planned once
// under BF-CBO with the engine profile, through the engine at DOP 2 over
// SF 0.01, after one untimed warm-up pass. It measures a whole pass's heap
// churn: CI gates its allocs/op (scripts/allocs_gate.sh) with a ceiling,
// so per-batch or per-row allocation cannot come back unnoticed. It also
// reports the rows per batch into the probes (probe_rows/batch): a scan
// fills its batches to a morsel's worth of rows, so a selective filter
// does not hand the probes above it a few dozen rows at a time.
func BenchmarkTPCHPass(b *testing.B) {
	const sf = 0.01
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := optimizer.DefaultOptions(sf)
	opts.Mode = optimizer.BFCBO
	type planned struct {
		num   int
		block *query.Block
		plan  *plan.Plan
	}
	var blocks []planned
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			b.Fatalf("Q%d: optimize: %v", q.Num, err)
		}
		blocks = append(blocks, planned{q.Num, block, res.Plan})
	}
	var probeRows, probeBatches int64
	pass := func() {
		for _, q := range blocks {
			r, err := Run(ds.DB, q.block, q.plan, Options{DOP: 2})
			if err != nil {
				b.Fatalf("Q%d: %v", q.num, err)
			}
			for _, st := range r.OpStats {
				if _, ok := st.Node.(*plan.Join); ok {
					probeRows += st.RowsIn
					probeBatches += st.Batches
				}
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(probeRows)/float64(probeBatches), "probe_rows/batch")
}
