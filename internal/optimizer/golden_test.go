package optimizer

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bfcbo/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden and testdata/plans_engine.golden from the current optimizer")

// goldenModes are the four configurations the benchmark's plan_heavy
// workload times.
var goldenModes = []struct {
	name string
	mode Mode
	h7   int
}{
	{"nobf", NoBF, 0},
	{"bfpost", BFPost, 0},
	{"bfcbo", BFCBO, 0},
	{"bfcbo_h7", BFCBO, 4},
}

// goldenProfiles are the two cost profiles, each with the file its plans
// are pinned in. plans.golden is the paper profile's and predates the
// engine profile: a change that leaves it byte-identical changed no search,
// only data. Diffing the two files shows what the engine profile flips.
var goldenProfiles = []struct {
	name, file string
	options    func(sf float64) Options
}{
	{"paper", "plans.golden", PaperOptions},
	{"engine", "plans_engine.golden", DefaultOptions},
}

// goldenCase is one block to plan, built fresh per Optimize call.
type goldenCase struct {
	name  string
	sf    float64
	build func(testing.TB) *query.Block
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for q := 1; q <= 22; q++ {
		cs = append(cs, goldenCase{fmt.Sprintf("tpch_q%d", q), tpchSF,
			func(tb testing.TB) *query.Block { return tpchBlock(tb, q) }})
	}
	// Catalog-only graphs sized like SF 100 tables, hence sf = 100.
	cs = append(cs,
		goldenCase{"chain12", 100, func(testing.TB) *query.Block { return chainGraph(12, 1201) }},
		goldenCase{"star10", 100, func(testing.TB) *query.Block { return starGraph("star", 10, 0, 1001) }},
		goldenCase{"snowflake11", 100, func(testing.TB) *query.Block { return snowflakeGraph(11, 1101) }},
		goldenCase{"clique6", 100, func(testing.TB) *query.Block { return cliqueGraph(6, 601) }},
	)
	return cs
}

// goldenLine renders the plan-identity record of one (block, mode): join
// order, root cost to the last bit, and the search-space counters.
func goldenLine(name, mode string, res *Result) string {
	return fmt.Sprintf("%s %s order=%s cost=%s kept=%d phase1=%d cands=%d blooms=%d",
		name, mode, res.Plan.JoinOrderSignature(),
		strconv.FormatFloat(res.Plan.Root.EstCost(), 'g', -1, 64),
		res.PlansKept, res.Phase1Pairs, res.Candidates, res.Plan.CountBlooms())
}

// naiveGoldenLines renders Naive's record of each TPC-H block under the
// paper profile with a 20 000-plan cap: its plan and search-space size, or
// the cap's error where the block blows up (§3.1). Naive's plan counts
// are what the paper's blow-up figure measures.
func naiveGoldenLines(t *testing.T) []string {
	var lines []string
	for _, c := range goldenCases()[:22] {
		opts := PaperOptions(c.sf)
		opts.Mode = Naive
		opts.MaxPlansPerSet = 20_000
		res, err := Optimize(c.build(t), opts)
		switch {
		case errors.Is(err, ErrSearchSpaceExceeded):
			lines = append(lines, fmt.Sprintf("%s naive error=%q", c.name, err))
		case err != nil:
			t.Fatalf("%s naive: %v", c.name, err)
		default:
			lines = append(lines, goldenLine(c.name, "naive", res))
		}
	}
	return lines
}

// TestGoldenPlans pins every plan the enumerator picks — and the size of
// the search it ran to pick it — under both cost profiles, and Naive's
// under the paper profile. Regenerate both files with
// `go test ./internal/optimizer -run TestGoldenPlans -update`.
func TestGoldenPlans(t *testing.T) {
	for _, p := range goldenProfiles {
		t.Run(p.name, func(t *testing.T) {
			var got []string
			for _, c := range goldenCases() {
				for _, m := range goldenModes {
					opts := p.options(c.sf)
					opts.Mode = m.mode
					opts.Heuristics.H7MaxSubPlans = m.h7
					res, err := Optimize(c.build(t), opts)
					if err != nil {
						t.Fatalf("%s %s: %v", c.name, m.name, err)
					}
					got = append(got, goldenLine(c.name, m.name, res))
				}
			}
			if p.name == "paper" {
				got = append(got, naiveGoldenLines(t)...)
			}
			path := filepath.Join("testdata", p.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			if len(want) != len(got) {
				t.Fatalf("%s has %d records, the test produced %d", path, len(want), len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("record %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
