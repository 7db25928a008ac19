package optimizer

import (
	"testing"

	"bfcbo/internal/query"
)

var benchSink *Result

// BenchmarkOptimize times one Optimize per iteration on one graph of each
// shape the plan_heavy workload plans, plus the widest TPC-H block. Blocks
// are built outside the timer; the README's "Planning time" table and CI's
// allocs ceiling read these numbers.
func BenchmarkOptimize(b *testing.B) {
	graphs := []struct {
		name  string
		sf    float64
		build func() *query.Block
	}{
		{"chain14", 100, func() *query.Block { return chainGraph(14, 1401) }},
		{"star11", 100, func() *query.Block { return starGraph("star", 11, 0, 1101) }},
		{"snowflake12", 100, func() *query.Block { return snowflakeGraph(12, 1201) }},
		{"clique6", 100, func() *query.Block { return cliqueGraph(6, 601) }},
		{"tpch_q8", tpchSF, func() *query.Block { return tpchBlock(b, 8) }},
	}
	modes := []struct {
		name string
		mode Mode
	}{{"nobf", NoBF}, {"bfcbo", BFCBO}}
	for _, g := range graphs {
		for _, m := range modes {
			b.Run(g.name+"/"+m.name, func(b *testing.B) {
				opts := DefaultOptions(g.sf)
				opts.Mode = m.mode
				blocks := make([]*query.Block, b.N)
				for i := range blocks {
					blocks[i] = g.build()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for _, blk := range blocks {
					res, err := Optimize(blk, opts)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
			})
		}
	}
}
