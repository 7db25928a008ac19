package bench

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"

	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/tpch"
)

// newCells reports how many cells h measured since before, a copy of its
// cells: new (query, options) pairs, and old pairs measured again.
func newCells(h *Harness, before map[cell]*QueryRun) (added, again int) {
	for c, qr := range h.cells {
		if old, ok := before[c]; !ok {
			added++
		} else if old != qr {
			again++
		}
	}
	return added, again
}

func tinyHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(Config{ScaleFactor: 0.004, Seed: 5, DOP: 4, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRunQueryAllModes(t *testing.T) {
	h := tinyHarness(t)
	for _, mode := range []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO} {
		qr, err := h.RunQuery(12, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if qr.Latency <= 0 || qr.PlannerTime <= 0 {
			t.Fatalf("%s: degenerate timings %+v", mode, qr)
		}
	}
	if _, err := h.RunQuery(99, optimizer.NoBF); err == nil {
		t.Fatal("unknown query should error")
	}
}

func TestTable2SubsetRuns(t *testing.T) {
	h := tinyHarness(t)
	tbl, err := h.RunTable2([]int{3, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.NormPost <= 0 || r.NormCBO <= 0 {
			t.Fatalf("degenerate normalized latencies: %+v", r)
		}
	}
	var buf bytes.Buffer
	tbl.Print(&buf, "test table")
	tbl.PrintMAE(&buf)
	out := buf.String()
	for _, want := range []string{"Q#", "tot", "MAE", "plan search"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print output missing %q:\n%s", want, out)
		}
	}
}

// Tables 2 and 3 and the MAE comparison: BF-CBO's plan is never costlier
// than BF-Post's on any of the 22 blocks, Heuristic 7 never keeps more
// sub-plans than the default, and BF-CBO's mean estimate error over the
// analyzed queries is below BF-Post's. One harness runs every experiment
// that reads these cells: the MAE listing and Figures 1 and 4 measure
// nothing Table 2 did not, and Table 3 adds only its BF-CBO cells. The
// plan-only rows are planned once, for Table 2, and shared.
func TestTable2Claims(t *testing.T) {
	h := tinyHarness(t)
	tbl, err := h.RunTable2(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Plans) != 22 {
		t.Fatalf("plan comparison covers %d blocks, want all 22", len(tbl.Plans))
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("Table 2: %v", err)
	}
	if want := 3 * len(tpch.Analyzed()); len(h.cells) != want {
		t.Fatalf("Table 2 measured %d cells, want %d", len(h.cells), want)
	}
	table2 := maps.Clone(h.cells)

	mae, err := h.RunTable2(nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // fig1, fig4
		if _, err := h.RunFigure(12); err != nil {
			t.Fatal(err)
		}
	}
	if added, again := newCells(h, table2); added+again != 0 {
		t.Fatalf("mae, fig1 and fig4 after Table 2 measured %d new cells and %d again, want none", added, again)
	}

	tbl3, err := h.RunTable3(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl3.Check(); err != nil {
		t.Fatalf("Table 3: %v", err)
	}
	if added, again := newCells(h, table2); added != len(tpch.Analyzed()) || again != 0 {
		t.Fatalf("Table 3 after Table 2 measured %d new cells and %d again, want %d new", added, again, len(tpch.Analyzed()))
	}
	for _, other := range []*Table2{mae, tbl3} {
		if &other.Plans[0] != &tbl.Plans[0] {
			t.Fatal("the MAE listing or Table 3 planned the plan-only rows again")
		}
	}
	for c := range h.cells {
		if _, ok := table2[c]; !ok && (c.opts.Mode != optimizer.BFCBO || c.opts.Heuristics.H7MaxSubPlans != h7MaxSubPlans) {
			t.Errorf("Q%d: Table 3 measured a %s cell with H7MaxSubPlans %d", c.query, c.opts.Mode, c.opts.Heuristics.H7MaxSubPlans)
		}
	}
}

// Figures 1, 4 and 6: Q12 gets no Bloom filter under BF-Post and a filter
// plus the opposite join order under BF-CBO; Q7 changes join order and
// carries a chain of filters.
func TestFigureClaims(t *testing.T) {
	h := tinyHarness(t)
	for _, num := range []int{12, 7} {
		f, err := h.RunFigure(num)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		var buf bytes.Buffer
		f.Print(&buf)
		for _, want := range []string{"BF-Post", "BF-CBO", "actual="} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("figure report missing %q:\n%s", want, buf.String())
			}
		}
	}
}

func TestNaiveBlowupClaim(t *testing.T) {
	rows, err := tinyHarness(t).RunNaiveBlowup(3, 5, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := rows.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rows.Print(&buf)
	if !strings.Contains(buf.String(), "naive") {
		t.Fatal("naive blow-up output malformed")
	}
}

// The ablation's baseline row reads Table 2's BF-CBO cells: it measures
// none of its own, and its Bloom filter and row totals are that column's
// sums.
func TestAblationClaim(t *testing.T) {
	h := tinyHarness(t)
	queries := []int{12, 3}
	tbl, err := h.RunTable2(queries)
	if err != nil {
		t.Fatal(err)
	}
	table2 := maps.Clone(h.cells)
	rows, err := h.RunAblation(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("ablation variants = %d, want 9", len(rows))
	}
	if added, again := newCells(h, table2); added != (len(rows)-1)*len(queries) || again != 0 {
		t.Fatalf("ablation after Table 2 measured %d new cells and %d again, want %d new (none for the baseline)",
			added, again, (len(rows)-1)*len(queries))
	}
	if err := rows.Check(); err != nil {
		t.Fatal(err)
	}
	var blooms, outRows int
	for _, r := range tbl.Rows {
		blooms += r.BloomsCBO
		cbo, err := h.RunQuery(r.Query, optimizer.BFCBO)
		if err != nil {
			t.Fatal(err)
		}
		outRows += cbo.OutputRows
	}
	if base := rows[0]; base.TotalBlooms != blooms || base.TotalRows != outRows {
		t.Fatalf("ablation baseline: %d Bloom filters and %d rows, Table 2's BF-CBO %d and %d",
			base.TotalBlooms, base.TotalRows, blooms, outRows)
	}
	var buf bytes.Buffer
	rows.Print(&buf)
	if !strings.Contains(buf.String(), "baseline") {
		t.Fatal("ablation output malformed")
	}
}

// The calibration: under BF-Post the engine profile builds at most 60 % of
// the rows the paper profile builds, under BF-CBO no more; over its semi,
// anti and left joins it builds no more rows than it probes with; the four
// configurations return the same rows; BF-CBO is no costlier than BF-Post
// under either profile.
func TestCalibrationClaim(t *testing.T) {
	c, err := tinyHarness(t).RunCalibration()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 22 {
		t.Fatalf("calibration covers %d blocks, want all 22", len(c.Rows))
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// The probe claim leaves out exactly the block that joins on a
	// composite key, lineitem ⋈ partsupp.
	for _, r := range c.Rows {
		if r.CompositeKey != (r.Query == 9) {
			t.Errorf("Q%d: CompositeKey %v", r.Query, r.CompositeKey)
		}
	}
	// The same results with the profiles' labels exchanged must not pass:
	// the claim is about which profile builds less.
	swapped := &Calibration{}
	for _, r := range c.Rows {
		swapped.Rows = append(swapped.Rows, CalibRow{Query: r.Query, Paper: r.Engine, Engine: r.Paper})
	}
	if err := swapped.Check(); err == nil || !strings.Contains(err.Error(), "build work: BF-Post") {
		t.Fatalf("Check accepted the profiles swapped: %v", err)
	}
	var buf bytes.Buffer
	c.Print(&buf)
	for _, want := range []string{"engine  BF-CBO", "paper   BF-Post", "hash build sides", "engine ÷ paper profile, BF-Post", "rho",
		"[right semi]", "engine profile, semi/anti/left joins", "without a composite-key join (claim: <= 1), "} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("calibration report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSpearman(t *testing.T) {
	for _, c := range []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}, 1},
		{[]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1},
		{[]float64{1, 2, 3}, []float64{1, 1000, 2}, 0.5},
		{[]float64{1, 1, 2, 2}, []float64{1, 1, 2, 2}, 1}, // ties share a rank
		{[]float64{1, 2, 3}, []float64{5, 5, 5}, 0},       // no variance, no correlation
	} {
		if got := spearman(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spearman(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// Every Check must be able to fail: each case hands it a result doctored to
// break one claim and requires an error that names that claim.
func TestChecksRejectDoctoredResults(t *testing.T) {
	goodTable := func() *Table2 {
		return &Table2{
			Plans:       []PlanRow{{Query: 3, CostPost: 10, CostCBO: 9, PlansKept: 8, PlansKeptH7: 6}},
			MeanMAEPost: 100, MeanMAECBO: 60,
		}
	}
	goodFigure := func(q int) *Figure {
		run := func(sig string, cost float64, blooms int) *QueryRun {
			r := &exec.Result{BloomStats: make([]exec.BloomRuntime, blooms)}
			return &QueryRun{Query: q, JoinOrderSig: sig, EstCost: cost, Blooms: blooms, OutputRows: 7, Actuals: r}
		}
		return &Figure{Post: run("(l o)", 10, 0), CBO: run("(o l)", 9, 2)}
	}
	goodNaive := func() NaiveBlowup {
		return NaiveBlowup{
			{Tables: 3, NaivePlans: 15, TwoPhasePlans: 12},
			{Tables: 4, NaivePlans: 114, TwoPhasePlans: 37},
			{Tables: 5, NaiveDNF: true, TwoPhasePlans: 142},
		}
	}
	goodAblation := func() Ablation {
		return Ablation{{Name: "baseline", TotalRows: 50}, {Name: "H1 off", TotalRows: 50}}
	}
	goodCalibration := func() *Calibration {
		cell := func(cost float64, build int64) CalibCell {
			return CalibCell{EstCost: cost, Rows: 7, Work: exec.Work{Build: build}, UnitBuild: 20, UnitProbe: 300}
		}
		return &Calibration{Rows: []CalibRow{{
			Query:  3,
			Paper:  CalibPair{Post: cell(10, 1000), CBO: cell(9, 800)},
			Engine: CalibPair{Post: cell(30, 500), CBO: cell(28, 500)},
		}}}
	}
	type checker interface{ Check() error }
	for _, good := range []checker{goodTable(), goodFigure(12), goodFigure(7), goodNaive(), goodAblation(), goodCalibration()} {
		if err := good.Check(); err != nil {
			t.Fatalf("undoctored %T rejected: %v", good, err)
		}
	}

	cases := []struct {
		name   string
		result checker
		claim  string // must appear in the error
	}{
		{"BF-CBO cost above BF-Post on one block", func() checker {
			tbl := goodTable()
			tbl.Plans = append(tbl.Plans, PlanRow{Query: 9, CostPost: 10, CostCBO: 10.5})
			return tbl
		}(), "plan cost: Q9"},
		{"Heuristic 7 keeps more sub-plans", func() checker {
			tbl := goodTable()
			tbl.Plans[0].PlansKeptH7 = 9
			return tbl
		}(), "Heuristic 7: Q3"},
		{"MAE not improved", func() checker {
			tbl := goodTable()
			tbl.MeanMAECBO = tbl.MeanMAEPost
			return tbl
		}(), "estimate MAE"},
		{"equal Q12 signatures", func() checker {
			f := goodFigure(12)
			f.CBO.JoinOrderSig = f.Post.JoinOrderSig
			return f
		}(), "join-order flip: Q12"},
		{"BF-Post finds a filter on Q12", func() checker {
			f := goodFigure(12)
			f.Post.Blooms = 1
			return f
		}(), "Figure 1"},
		{"running example lost its Bloom filter", func() checker {
			f := goodFigure(12)
			f.CBO.Blooms = 0
			return f
		}(), "lost its Bloom filter"},
		{"no Bloom runtime stats", func() checker {
			f := goodFigure(12)
			f.CBO.Actuals = &exec.Result{}
			return f
		}(), "none reported at run time"},
		{"Q7 without a filter chain", func() checker {
			f := goodFigure(7)
			f.CBO.Blooms = 1
			return f
		}(), "Figure 6"},
		{"answers differ", func() checker {
			f := goodFigure(7)
			f.CBO.OutputRows++
			return f
		}(), "same answer: Q7"},
		{"figure plan costlier", func() checker {
			f := goodFigure(7)
			f.CBO.EstCost = 11
			return f
		}(), "plan cost: Q7"},
		{"non-growing naive counts", func() checker {
			rows := goodNaive()
			rows[1].NaivePlans = rows[0].NaivePlans
			return rows
		}(), "naive blow-up: 15 plans kept on 4 tables"},
		{"naive finishes after a DNF", func() checker {
			rows := goodNaive()
			rows[1].NaiveDNF = true
			rows[2] = NaiveRow{Tables: 5, NaivePlans: 1927, TwoPhasePlans: 142}
			return rows
		}(), "1927 plans kept on 5 tables, not above the DNF on 4 tables"},
		{"naive below two-phase at 4 tables", func() checker {
			rows := goodNaive()
			rows[1].TwoPhasePlans = 200
			return rows
		}(), "on 4 tables naive keeps 114 plans, two-phase 200"},
		{"ablation variant changes the answer", func() checker {
			rows := goodAblation()
			rows[1].TotalRows = 49
			return rows
		}(), `ablation: "H1 off" returns 49 rows`},
		{"engine profile builds the big sides", func() checker {
			c := goodCalibration()
			c.Rows[0].Paper, c.Rows[0].Engine = c.Rows[0].Engine, c.Rows[0].Paper
			return c
		}(), "build work: BF-Post builds 1000 rows under the engine profile"},
		{"engine profile builds more under BF-CBO", func() checker {
			c := goodCalibration()
			c.Rows[0].Engine.CBO.Work.Build = 801
			return c
		}(), "build work: BF-CBO builds 801 rows under the engine profile"},
		{"engine profile builds the subquery side of a semi join", func() checker {
			c := goodCalibration()
			c.Rows[0].Engine.CBO.UnitBuild, c.Rows[0].Engine.CBO.UnitProbe = 300, 20
			return c
		}(), "build side of semi/anti/left joins: under the engine profile BF-CBO builds 300 rows to probe with 20 keys"},
		{"engine profile probes more under BF-CBO", func() checker {
			c := goodCalibration()
			c.Rows[0].Engine.CBO.Work.Probe = c.Rows[0].Engine.Post.Work.Probe + 1
			return c
		}(), "probe work: under the engine profile BF-CBO probes 1 keys, above BF-Post's 0"},
		{"a profile changes the answer", func() checker {
			c := goodCalibration()
			c.Rows[0].Engine.CBO.Rows++
			return c
		}(), "same answer: Q3 returns 8 rows under engine/BF-CBO"},
		{"BF-CBO costlier under the engine profile", func() checker {
			c := goodCalibration()
			c.Rows[0].Engine.CBO.EstCost = 31
			return c
		}(), "plan cost (engine profile): Q3"},
	}
	for _, tc := range cases {
		err := tc.result.Check()
		if err == nil {
			t.Errorf("%s: Check accepted a doctored result", tc.name)
		} else if !strings.Contains(err.Error(), tc.claim) {
			t.Errorf("%s: error %q does not name the claim %q", tc.name, err, tc.claim)
		}
	}
}
