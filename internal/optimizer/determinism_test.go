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
