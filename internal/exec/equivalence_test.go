package exec

import (
	"sync"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/tpch"
)

// The executor-equivalence suite: the pipelined morsel-driven executor and
// the legacy operator-at-a-time interpreter — the engine's one reference
// implementation — must produce the same result tuples, the same per-node
// row counts, and identical Bloom filter runtime records (every spec is
// one bloom.Filter whose bits depend on neither DOP nor executor), for
// every built-in TPC-H query under all four optimizer modes, at DOP 1 and
// 4, under the engine cost profile and under the paper profile, whose plans
// differ: other join orders and other build sides.

var (
	eqOnce sync.Once
	eqDS   *datagen.Dataset
	eqErr  error
)

func equivalenceDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	eqOnce.Do(func() {
		eqDS, eqErr = datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 71})
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqDS
}

func TestExecutorEquivalenceTPCH(t *testing.T) {
	modes := []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO, optimizer.Naive}
	t.Run("engine", func(t *testing.T) {
		executorEquivalenceTPCH(t, optimizer.DefaultOptions(0.01), modes, []int{1, 4})
	})
	// Without Naive: most of its searches abort at the cap, after seconds
	// of planning, and what survives adds no operator.
	t.Run("paper", func(t *testing.T) {
		executorEquivalenceTPCH(t, optimizer.PaperOptions(0.01), modes[:3], []int{1, 4})
	})
}

// executorEquivalenceTPCH diffs the engine against the reference on every
// TPC-H block planned under profile in each mode, at each DOP.
func executorEquivalenceTPCH(t *testing.T, profile optimizer.Options, modes []optimizer.Mode, dops []int) {
	ds := equivalenceDataset(t)
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range modes {
			opts := profile
			opts.Mode = mode
			if mode == optimizer.Naive {
				// The naive strawman's search space explodes on the wider
				// queries; a capped search that aborts is not an executor
				// concern, so those cells are skipped.
				opts.MaxPlansPerSet = 50_000
			}
			res, err := optimizer.Optimize(block, opts)
			if err == optimizer.ErrSearchSpaceExceeded {
				continue
			}
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			// The reference ignores DOP: one run serves every DOP.
			legacy, err := Run(ds.DB, block, res.Plan, Options{Legacy: true})
			if err != nil {
				t.Fatalf("Q%d %s: legacy exec: %v", q.Num, mode, err)
			}
			rowsAtDOP := map[int]int{}
			for _, dop := range dops {
				piped, err := Run(ds.DB, block, res.Plan, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: pipelined exec: %v", q.Num, mode, dop, err)
				}
				if legacy.Rows != piped.Rows {
					t.Errorf("Q%d %s dop %d: rows diverge: legacy=%d pipelined=%d",
						q.Num, mode, dop, legacy.Rows, piped.Rows)
				}
				rowsAtDOP[dop] = piped.Rows
				// Every successful run materializes its rows.
				for i, r := range []*Result{legacy, piped} {
					if r.Out == nil || r.Out.Len() != r.Rows {
						t.Fatalf("Q%d %s dop %d: run %d (legacy, pipelined): Out is nil or disagrees with Rows=%d",
							q.Num, mode, dop, i, r.Rows)
					}
				}
				// Same tuples, not just as many: scan kernels, Bloom
				// probes, the flat tables and the pair-driven emit may
				// reorder the output but never change it.
				want, got := canonicalRows(legacy.Out), canonicalRows(piped.Out)
				for i := 0; i < len(want) && i < len(got); i++ {
					if got[i] != want[i] {
						t.Errorf("Q%d %s dop %d: tuple %d diverges: legacy=%q pipelined=%q",
							q.Num, mode, dop, i, want[i], got[i])
						break
					}
				}
				// Per-node actuals must agree (both record every node once).
				for _, na := range legacy.Actuals {
					if got := piped.ActualFor(na.Node); got != na.Actual {
						t.Errorf("Q%d %s dop %d: node actual diverges: legacy=%v pipelined=%v",
							q.Num, mode, dop, na.Actual, got)
					}
				}
				// Bloom runtime records are deterministic: the same filter
				// bits are built (bit-vector union is order independent)
				// and the same rows are probed.
				lbf := bloomByID(legacy.BloomStats)
				pbf := bloomByID(piped.BloomStats)
				if len(lbf) != len(pbf) {
					t.Errorf("Q%d %s dop %d: bloom stat count diverges: %d vs %d",
						q.Num, mode, dop, len(lbf), len(pbf))
				}
				for id, l := range lbf {
					p, ok := pbf[id]
					if !ok {
						t.Errorf("Q%d %s dop %d: bloom %d missing from pipelined run", q.Num, mode, dop, id)
						continue
					}
					if l != p {
						t.Errorf("Q%d %s dop %d: bloom %d diverges: legacy=%+v pipelined=%+v",
							q.Num, mode, dop, id, l, p)
					}
				}
			}
			if len(dops) > 1 && rowsAtDOP[1] != rowsAtDOP[4] {
				t.Errorf("Q%d %s: pipelined rows differ across DOP: dop1=%d dop4=%d",
					q.Num, mode, rowsAtDOP[1], rowsAtDOP[4])
			}
		}
	}
}

func bloomByID(stats []BloomRuntime) map[int]BloomRuntime {
	m := make(map[int]BloomRuntime, len(stats))
	for _, s := range stats {
		m[s.ID] = s
	}
	return m
}
