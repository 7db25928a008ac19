package optimizer

import (
	"errors"
	"fmt"
	"testing"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// The engine profile plans for the executor it runs, whose one join operator
// is the hash join: cost.Engine prices merge and nested-loop joins +Inf, so
// under DefaultOptions no block of any family, in any mode, plans either.
// The paper profile keeps both methods, and its TPC-H plans still name merge
// joins — which is what keeps the check from holding vacuously.
func TestEngineProfilePlansHashJoinsOnly(t *testing.T) {
	type family struct {
		name  string
		sf    float64
		naive bool // small enough for the naive enumerator
		build func() *query.Block
	}
	var blocks []family
	for q := 1; q <= 22; q++ {
		// Naive on Q8's eight relations alone plans for seconds.
		naive := len(tpchBlock(t, q).Relations) < 8
		blocks = append(blocks, family{fmt.Sprintf("tpch_q%d", q), tpchSF, naive,
			func() *query.Block { return tpchBlock(t, q) }})
	}
	// property_test's random graphs, with and without a semi/anti/left unit.
	for seed := uint64(1); seed <= 290; seed++ {
		_, b := randomDatabase(seed)
		if seed%2 == 0 {
			_, b = randomUnitDatabase(seed)
		}
		blocks = append(blocks, family{b.Name, tpchSF, len(b.Relations) <= 4,
			func() *query.Block { return cloneBlock(b) }})
	}
	// The plan_heavy families, sized like SF 100 tables.
	for seed := uint64(1); seed <= 3; seed++ {
		for n := 10; n <= 14; n++ {
			blocks = append(blocks, family{fmt.Sprintf("chain%d/%d", n, seed), 100, false,
				func() *query.Block { return chainGraph(n, 100*uint64(n)+seed) }})
		}
		for n := 9; n <= 12; n++ {
			blocks = append(blocks,
				family{fmt.Sprintf("star%d/%d", n, seed), 100, false,
					func() *query.Block { return starGraph("star", n, 0, 100*uint64(n)+seed) }},
				family{fmt.Sprintf("snowflake%d/%d", n, seed), 100, false,
					func() *query.Block { return snowflakeGraph(n, 100*uint64(n)+seed) }})
		}
		for n := 5; n <= 6; n++ {
			blocks = append(blocks, family{fmt.Sprintf("clique%d/%d", n, seed), 100, false,
				func() *query.Block { return cliqueGraph(n, 100*uint64(n)+seed) }})
		}
	}
	for seed := uint64(1); seed <= 30; seed++ {
		blocks = append(blocks, family{fmt.Sprintf("unit-%d", seed), 100, false,
			func() *query.Block { return randomUnitGraph(seed) }})
	}

	plans := func(options func(float64) Options, f family, mode Mode) []*plan.Join {
		opts := options(f.sf)
		opts.Mode = mode
		if mode == Naive {
			opts.MaxPlansPerSet = 50_000
		}
		res, err := Optimize(f.build(), opts)
		if mode == Naive && errors.Is(err, ErrSearchSpaceExceeded) {
			return nil
		}
		if err != nil {
			t.Fatalf("%s %s: %v", f.name, mode, err)
		}
		return res.Plan.Joins()
	}
	for _, f := range blocks {
		modes := []Mode{NoBF, BFPost, BFCBO, Naive}
		if !f.naive {
			modes = modes[:3]
		}
		for _, mode := range modes {
			for _, j := range plans(DefaultOptions, f, mode) {
				if j.Method != plan.HashJoin {
					t.Errorf("%s %s: the engine profile planned a %s over %s", f.name, mode, j.Method, j.Rels())
				}
			}
		}
	}

	merges := 0
	for _, f := range blocks[:22] {
		for _, j := range plans(PaperOptions, f, BFPost) {
			if j.Method == plan.MergeJoin {
				merges++
			}
		}
	}
	if merges == 0 {
		t.Error("the paper profile planned no merge join on TPC-H: the test lost its contrast")
	}
}
