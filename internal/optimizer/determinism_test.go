package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// Planning must be a pure function of the block: the same plan, EXPLAIN
// text (join-condition order, Bloom filter numbering) and fingerprint every
// time. Before the join graph index, the transitive closure was derived by
// ranging over maps and appended to the caller's clause list, so Q5 and Q9
// minted several fingerprints each and shared-key cliques printed several
// EXPLAIN texts for one plan.
func TestPlanningIsDeterministic(t *testing.T) {
	for _, p := range goldenProfiles {
		t.Run(p.name, func(t *testing.T) { planningIsDeterministic(t, p.options) })
	}
}

func planningIsDeterministic(t *testing.T, options func(sf float64) Options) {
	cases := goldenCases()[:22] // the TPC-H blocks
	cases = append(cases, goldenCase{"clique6", 100, func(testing.TB) *query.Block { return cliqueGraph(6, 601) }})
	for _, c := range cases {
		opts := options(c.sf)
		var want string
		for cycle := 0; cycle < 50; cycle++ {
			b := c.build(t)
			written := len(b.Clauses)
			res, err := Optimize(b, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(b.Clauses) != written {
				t.Fatalf("%s: Optimize changed the block's clause list from %d to %d clauses", c.name, written, len(b.Clauses))
			}
			got := fmt.Sprintf("%016x\n%s", plan.Fingerprint(b, res.Plan), res.Plan.Explain())
			if cycle == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: cycle %d planned differently:\n%s\nfirst cycle:\n%s", c.name, cycle, got, want)
			}
		}
	}
}

// The multi-column extension renumbers candidates once per composite-key
// relation pair; with two such pairs the numbering, and with it the Bloom
// filter ids in EXPLAIN, must not depend on map order.
func TestCompositeCandidatesDeterministic(t *testing.T) {
	build := func() *query.Block {
		// t0 joins t1 and t2 each on a two-column key.
		g := newTestGraph("two-pairs", 9)
		for i := 0; i < 3; i++ {
			g.rel(g.logUniform(1e5, 1e7), true)
		}
		for child := 1; child <= 2; child++ {
			for _, key := range []string{"a", "b"} {
				fk := fmt.Sprintf("%s%d", key, child)
				g.col(0, fk, 1000)
				g.col(child, key, 1000)
				g.clauses = append(g.clauses, query.JoinClause{
					Type: query.Inner, LeftRel: 0, LeftCol: fk, RightRel: child, RightCol: key})
			}
		}
		return g.block()
	}
	opts := DefaultOptions(100) // marking candidates reads no cost
	opts.Heuristics.MultiColumn = true
	var want string
	for cycle := 0; cycle < 50; cycle++ {
		o := newTestOptimizer(t, build(), opts)
		o.markCandidates()
		got := ""
		composites := 0
		for _, c := range o.cands {
			got += fmt.Sprintf("%d:%d.%s+%s<-%d.%s+%s ", c.id, c.applyRel, c.applyCol, c.applyCol2, c.buildRel, c.buildCol, c.buildCol2)
			if c.applyCol2 != "" {
				composites++
			}
		}
		if composites != 2 {
			t.Fatalf("want 2 composite candidates, got %d: %s", composites, got)
		}
		if cycle == 0 {
			want = got
		} else if got != want {
			t.Fatalf("cycle %d numbered candidates %s, first cycle %s", cycle, got, want)
		}
	}
}

// Optimize only reads its block, so goroutines may plan one block at once
// (run under -race).
func TestConcurrentOptimizeSameBlock(t *testing.T) {
	for _, p := range goldenProfiles {
		t.Run(p.name, func(t *testing.T) { concurrentOptimizeSameBlock(t, p.options(tpchSF)) })
	}
}

func concurrentOptimizeSameBlock(t *testing.T, opts Options) {
	for _, b := range []*query.Block{tpchBlock(t, 9), cliqueGraph(5, 501)} {
		var wg sync.WaitGroup
		explains := make([]string, 4)
		errs := make([]error, len(explains))
		for i := range explains {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Optimize(b, opts)
				if err != nil {
					errs[i] = err
					return
				}
				explains[i] = res.Plan.Explain()
			}()
		}
		wg.Wait()
		for i := range explains {
			if errs[i] != nil {
				t.Fatalf("%s: goroutine %d: %v", b.Name, i, errs[i])
			}
			if explains[i] != explains[0] {
				t.Errorf("%s: goroutine %d planned differently:\n%s\nvs\n%s", b.Name, i, explains[i], explains[0])
			}
		}
	}
}
