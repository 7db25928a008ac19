package exec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.golden and counts_budget.golden from the current executor")

// countsLines renders the exact counts of one run: its output rows, its
// Work vector, each Bloom filter's tests and passes, and each scan's
// per-predicate rows in and out. None of them depends on the DOP, the
// schedule or the CPU.
func countsLines(name string, r *Result) []string {
	out := []string{workLine(name, r)}
	for _, b := range r.BloomStats {
		out = append(out, fmt.Sprintf("  BF#%d tested=%d passed=%d", b.ID, b.Tested, b.Passed))
	}
	for _, s := range r.Scans {
		for _, p := range s.Preds {
			out = append(out, fmt.Sprintf("  scan %s: %s in=%d out=%d", s.Alias, p.Pred, p.In, p.Out))
		}
	}
	return out
}

// workLine renders a run's output rows and Work vector.
func workLine(name string, r *Result) string {
	w := r.Work
	return fmt.Sprintf("%s rows=%d work=build:%d,probe:%d,tested:%d,scanned:%d",
		name, r.Rows, w.Build, w.Probe, w.Tested, w.Scanned)
}

// planBlock plans block under the engine profile in mode at sf.
func planBlock(t *testing.T, q tpch.Query, block *query.Block, sf float64, mode optimizer.Mode) *plan.Plan {
	t.Helper()
	opts := optimizer.DefaultOptions(sf)
	opts.Mode = mode
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
	}
	return res.Plan
}

// TestCountsGolden pins the exact counts of the 22 TPC-H blocks planned
// under the engine profile × {BF-Post, BF-CBO} at SF 0.02: a change that
// moves a plan, a filter's tallies or a predicate's row flow shows the
// move in testdata/counts.golden's diff. DOP 1 and DOP 4 must render the
// same file. Regenerate it with
// `go test ./internal/exec -run TestCountsGolden -update`.
func TestCountsGolden(t *testing.T) {
	const sf = 0.02
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]string{}
	for _, q := range tpch.All() {
		block := q.Build(ds.Schema)
		for _, mode := range []optimizer.Mode{optimizer.BFPost, optimizer.BFCBO} {
			p := planBlock(t, q, block, sf, mode)
			for _, dop := range []int{1, 4} {
				r, err := Run(ds.DB, block, p, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: %v", q.Num, mode, dop, err)
				}
				got[dop] = append(got[dop], countsLines(fmt.Sprintf("tpch_q%d %s", q.Num, mode), r)...)
			}
		}
	}
	checkGolden(t, "counts.golden", got)
}

// spillLines renders the exact counts of a budgeted run: its output rows
// and Work vector, then each spilling pipeline's partitions, depth, bytes
// written/read and rows written/read on each side. None of them depends
// on the DOP or the schedule.
func spillLines(name string, r *Result) []string {
	out := []string{workLine(name, r)}
	for _, ps := range r.Pipelines {
		if s := ps.Spill; s.Spilled() {
			out = append(out, fmt.Sprintf("  P%d spill parts=%d depth=%d bytes=%d/%d build=%d/%d probe=%d/%d",
				ps.ID, s.Partitions, s.Depth, s.Bytes, s.BytesRead,
				s.BuildRowsWritten, s.BuildRowsRead, s.ProbeRowsWritten, s.ProbeRowsRead))
		}
	}
	return out
}

// TestCountsGoldenBudget pins what the grace join spills under a 1-byte
// budget, where every join with a non-empty build side spills and a block
// with joins writes rows on both sides: the 22 TPC-H blocks (BF-CBO,
// engine profile) at SF 0.02, whose pairs all fit at depth 0, and Q13 and
// Q22 at SF 0.2, whose grace joins repartition to depth 1. DOP 1 and DOP 4
// must render the same testdata/counts_budget.golden. Regenerate it with
// `go test ./internal/exec -run TestCountsGoldenBudget -update`.
func TestCountsGoldenBudget(t *testing.T) {
	got := map[int][]string{}
	for _, part := range []struct {
		sf   float64
		nums []int
	}{{0.02, nil}, {0.2, []int{13, 22}}} {
		ds, err := datagen.Generate(datagen.Config{ScaleFactor: part.sf, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.All() {
			if part.nums != nil && !slices.Contains(part.nums, q.Num) {
				continue
			}
			block := q.Build(ds.Schema)
			p := planBlock(t, q, block, part.sf, optimizer.BFCBO)
			for _, dop := range []int{1, 4} {
				r, err := Run(ds.DB, block, p, Options{DOP: dop, Broker: mem.NewBroker(tinyBudget), SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("Q%d sf %g dop %d: %v", q.Num, part.sf, dop, err)
				}
				// A pair that cannot produce output is removed unread, so
				// only the rows written are bound to be there.
				if s := r.TotalSpill(); len(p.Joins()) > 0 && (s.BuildRowsWritten == 0 || s.ProbeRowsWritten == 0) {
					t.Errorf("Q%d sf %g dop %d: its joins spilled under a 1-byte budget but wrote no rows on a side: %+v", q.Num, part.sf, dop, s)
				}
				got[dop] = append(got[dop], spillLines(fmt.Sprintf("tpch_q%d sf=%g", q.Num, part.sf), r)...)
			}
		}
	}
	checkGolden(t, "counts_budget.golden", got)
}

// checkGolden fails unless got's DOP-1 and DOP-4 lines are the same and
// equal testdata/<name>, which -update rewrites from them instead.
func checkGolden(t *testing.T, name string, got map[int][]string) {
	t.Helper()
	if len(got[4]) != len(got[1]) {
		t.Fatalf("DOP 4 renders %d lines, DOP 1 %d", len(got[4]), len(got[1]))
	}
	for i := range got[1] {
		if got[4][i] != got[1][i] {
			t.Fatalf("line %d differs between DOPs:\n dop 4 %s\n dop 1 %s", i+1, got[4][i], got[1][i])
		}
	}
	path := filepath.Join("testdata", name)
	if *updateCounts {
		file := strings.Join(got[1], "\n") + "\n"
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got[1]) {
		t.Fatalf("%s has %d lines, the test produced %d", path, len(want), len(got[1]))
	}
	for i := range want {
		if got[1][i] != want[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[1][i], want[i])
		}
	}
}
