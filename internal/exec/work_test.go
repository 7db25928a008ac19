package exec

import (
	"strings"
	"testing"

	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/tpch"
)

// Result.Work is the deterministic account of a run. Over all 22 TPC-H
// blocks under the engine profile: a repeated run at the same DOP does the
// same work to the row; Build is the rows the hash-build pipelines
// delivered to their sinks and Tested the filters' own tallies; and every
// plan, Bloom filters or not, does the same work at DOP 1 and DOP 4 — a
// filter's bits, and so its false positives, do not depend on DOP. CI
// repeats this with -count=3, which covers repetition across processes.
func TestWorkIsExact(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range []optimizer.Mode{optimizer.NoBF, optimizer.BFCBO} {
			opts := optimizer.DefaultOptions(0.01)
			opts.Mode = mode
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			run := func(dop int) *Result {
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: %v", q.Num, mode, dop, err)
				}
				return r
			}
			serial, par, again := run(1), run(4), run(4)
			if par.Work != again.Work {
				t.Errorf("Q%d %s: two runs at DOP 4 did %+v and %+v", q.Num, mode, par.Work, again.Work)
			}
			if serial.Work != par.Work {
				t.Errorf("Q%d %s: DOP 1 did %+v and DOP 4 %+v", q.Num, mode, serial.Work, par.Work)
			}
			for _, r := range []*Result{serial, par} {
				var built, tested int64
				for _, ps := range r.Pipelines {
					if strings.Contains(ps.Label, "-> hash-build") {
						built += ps.Rows
					}
				}
				for _, bs := range r.BloomStats {
					tested += bs.Tested
				}
				if r.Work.Build != built || r.Work.Tested != tested {
					t.Errorf("Q%d %s: Work %+v, but hash-build sinks took %d rows and filters tested %d",
						q.Num, mode, r.Work, built, tested)
				}
			}
			if mode == optimizer.NoBF && len(res.Plan.Joins()) > 0 && par.Work.Build+par.Work.Probe == 0 {
				t.Errorf("Q%d: a join plan built and probed nothing: %+v", q.Num, par.Work)
			}
		}
	}
}

// Work, the probe metrics and EXPLAIN ANALYZE report what ran: at every
// budget the join builds its inner rows, probes its outer rows, and shows as
// the hash join it is.
func TestWorkCountsWhatRan(t *testing.T) {
	db, b, p := factDimFixture(t)
	root := p.Root.(*plan.Join)
	for _, budget := range []int64{0, tinyBudget} {
		m := obs.NewMetrics(obs.NewRegistry())
		r, err := Run(db, b, p, Options{DOP: 2, Broker: mem.NewBroker(budget), SpillDir: t.TempDir(), Metrics: m})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		wantBuild, wantProbe := int64(r.ActualFor(root.Inner)), int64(r.ActualFor(root.Outer))
		if r.Work.Build != wantBuild || r.Work.Probe != wantProbe || wantBuild == 0 || wantProbe == 0 {
			t.Errorf("budget %d: Work %+v, want build %d probe %d", budget, r.Work, wantBuild, wantProbe)
		}
		if got := m.ProbeRows.Value(); got != wantProbe {
			t.Errorf("budget %d: probe-rows metric %d, want %d", budget, got, wantProbe)
		}
		const head = "  HashJoin(inner) none  est="
		if out := r.ExplainAnalyze(p); !strings.Contains(out, head) {
			t.Errorf("budget %d: EXPLAIN ANALYZE does not show the node as %q:\n%s", budget, head, out)
		}
	}
}
