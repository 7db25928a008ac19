package exec

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfcbo/internal/datagen"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/tpch"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.golden from the current executor")

// countsLines renders the exact counts of one run: its output rows, its
// Work vector, each Bloom filter's tests and passes, and each scan's
// per-predicate rows in and out. None of them depends on the DOP, the
// schedule or the CPU.
func countsLines(name string, r *Result) []string {
	w := r.Work
	out := []string{fmt.Sprintf("%s rows=%d work=build:%d,probe:%d,tested:%d,scanned:%d",
		name, r.Rows, w.Build, w.Probe, w.Tested, w.Scanned)}
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
			opts := optimizer.DefaultOptions(sf)
			opts.Mode = mode
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			for _, dop := range []int{1, 4} {
				r, err := Run(ds.DB, block, res.Plan, Options{DOP: dop})
				if err != nil {
					t.Fatalf("Q%d %s dop %d: %v", q.Num, mode, dop, err)
				}
				got[dop] = append(got[dop], countsLines(fmt.Sprintf("tpch_q%d %s", q.Num, mode), r)...)
			}
		}
	}
	if len(got[4]) != len(got[1]) {
		t.Fatalf("DOP 4 renders %d lines, DOP 1 %d", len(got[4]), len(got[1]))
	}
	for i := range got[1] {
		if got[4][i] != got[1][i] {
			t.Fatalf("line %d differs between DOPs:\n dop 4 %s\n dop 1 %s", i+1, got[4][i], got[1][i])
		}
	}
	path := filepath.Join("testdata", "counts.golden")
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
