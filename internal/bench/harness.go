// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section on the in-memory TPC-H substrate
// — normalized query latencies for No-BF / BF-Post / BF-CBO (Fig. 5,
// Table 2), the Heuristic-7 variant (Table 3), the Q12 and Q7 plan analyses
// (Figs. 1 and 6), the naive-approach planning-time blow-up (§3.1), and the
// cardinality-estimation MAE comparison.
//
// Every result type carries a Check method stating the paper's claim for
// that experiment over deterministic quantities only — estimated cost,
// join-order signature, Bloom filter counts, sub-plans kept, MAE from
// exact row counts. Latencies are printed, never asserted: performance is
// measured in benchmark/, which has a noise floor.
package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"bfcbo/internal/catalog"
	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// Config parameterises a harness run.
type Config struct {
	ScaleFactor float64
	Seed        uint64
	// DOP is the executor's degree of parallelism; the cost model plans
	// at its profile's own DOP.
	DOP int
	// Repetitions per query; the first is discarded as warm-up when > 1
	// (the paper averages the last four of five runs).
	Reps int
}

// DefaultConfig is sized to finish in seconds on a laptop.
func DefaultConfig() Config {
	return Config{ScaleFactor: 0.02, Seed: 20_25, DOP: 8, Reps: 3}
}

// Harness owns a generated dataset and runs experiments against it. Every
// experiment is a view over its cells: a (query, options) pair is planned
// and executed once, and every experiment that asks for it reads the same
// QueryRun. The plan-only rows Tables 2 and 3 share are planned once too.
type Harness struct {
	cfg   Config
	ds    *datagen.Dataset
	cells map[cell]*QueryRun
	plans []PlanRow
}

// cell names one measurement: a TPC-H block planned with one set of
// optimizer options.
type cell struct {
	query int
	opts  optimizer.Options
}

// NewHarness generates the dataset.
func NewHarness(cfg Config) (*Harness, error) {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Harness{cfg: cfg, ds: ds, cells: make(map[cell]*QueryRun)}, nil
}

// h7MaxSubPlans is the sub-plan cap Table 3 runs Heuristic 7 with.
const h7MaxSubPlans = 4

// options is where every experiment gets its optimizer options. The paper's
// claims are about the paper's environment, so every experiment plans with
// optimizer.PaperOptions; calibrate alone also plans as the engine does.
func (h *Harness) options(mode optimizer.Mode) optimizer.Options {
	return h.optionsFrom(optimizer.PaperOptions, mode)
}

// optionsFrom is the one place the harness gets optimizer options from:
// base's (optimizer.PaperOptions or optimizer.DefaultOptions) at the
// harness's scale factor, in mode.
func (h *Harness) optionsFrom(base func(scaleFactor float64) optimizer.Options, mode optimizer.Mode) optimizer.Options {
	opts := base(h.cfg.ScaleFactor)
	opts.Mode = mode
	return opts
}

// QueryRun is the measured outcome of one (query, options) cell.
type QueryRun struct {
	Query       int
	Mode        optimizer.Mode
	Latency     time.Duration
	PlannerTime time.Duration
	// ExecTime is the median executor-only latency (Latency minus the
	// planning component).
	ExecTime time.Duration
	// EstCost is the optimizer's estimated cost of the plan root.
	EstCost      float64
	Blooms       int
	OutputRows   int
	JoinOrderSig string
	// MAE is the mean absolute error of intermediate-node cardinality
	// estimates versus observed rows.
	MAE float64
	// Plan retains the physical plan for figure-style reporting.
	Plan *plan.Plan
	// Actuals maps plan nodes to observed cardinalities.
	Actuals *exec.Result
}

// RunQuery plans and executes one TPC-H query in one mode, averaging
// latencies over the configured repetitions.
func (h *Harness) RunQuery(num int, mode optimizer.Mode) (*QueryRun, error) {
	return h.runQuery(num, h.options(mode))
}

// runQuery returns the cell (num, opts), planning and executing it on its
// first request.
func (h *Harness) runQuery(num int, opts optimizer.Options) (*QueryRun, error) {
	key := cell{query: num, opts: opts}
	if qr, ok := h.cells[key]; ok {
		return qr, nil
	}
	q, ok := tpch.Get(num)
	if !ok {
		return nil, fmt.Errorf("bench: unknown TPC-H query %d", num)
	}
	mode := opts.Mode
	block := q.Build(h.ds.Schema)
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: Q%d %s: %w", num, mode, err)
	}

	var r *exec.Result
	var samples []time.Duration
	for rep := 0; rep < h.cfg.Reps; rep++ {
		runtime.GC() // keep allocator noise out of the measurement
		start := time.Now()
		r, err = exec.Run(h.ds.DB, block, res.Plan, exec.Options{DOP: h.cfg.DOP})
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: Q%d %s exec: %w", num, mode, err)
		}
		if h.cfg.Reps > 1 && rep == 0 {
			continue // warm-up
		}
		samples = append(samples, elapsed)
	}
	// The median is robust to scheduler hiccups at millisecond scales
	// (the paper, at second scales, could afford plain averaging).
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[len(samples)/2]
	qr := &QueryRun{
		Query: num, Mode: mode,
		Latency:      med + res.PlanningTime,
		PlannerTime:  res.PlanningTime,
		ExecTime:     med,
		EstCost:      res.Plan.Root.EstCost(),
		Blooms:       res.Plan.CountBlooms(),
		OutputRows:   r.Rows,
		JoinOrderSig: res.Plan.JoinOrderSignature(),
		Plan:         res.Plan,
		Actuals:      r,
	}
	qr.MAE = meanAbsError(res.Plan, r)
	h.cells[key] = qr
	return qr, nil
}

// meanAbsError computes the MAE of estimated vs actual rows over all plan
// nodes (the paper reports it for intermediate plan nodes; scans with Bloom
// filters are where BF-Post's estimates go wrong, so they are included).
func meanAbsError(p *plan.Plan, r *exec.Result) float64 {
	var sum float64
	var n int
	var walk func(plan.Node)
	walk = func(node plan.Node) {
		actual := r.ActualFor(node)
		if actual >= 0 {
			diff := node.EstRows() - actual
			if diff < 0 {
				diff = -diff
			}
			sum += diff
			n++
		}
		if j, ok := node.(*plan.Join); ok {
			walk(j.Outer)
			walk(j.Inner)
		}
	}
	walk(p.Root)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Row is one line of the Table 2 / Table 3 report.
type Row struct {
	Query          int
	NormPost       float64 // BF-Post latency / No-BF latency
	NormCBO        float64 // BF-CBO latency / No-BF latency
	PctImprovement float64 // % reduction of BF-CBO vs BF-Post
	PlannerPostMS  float64
	PlannerCBOMS   float64
	PlanChanged    bool // BF-CBO picked a different join order than BF-Post
	BloomsPost     int
	BloomsCBO      int
	MAEPost        float64
	MAECBO         float64
}

// PlanRow compares the optimizer's own outputs on one TPC-H block, nothing
// executed: root estimated cost under BF-Post and BF-CBO, and the sub-plans
// BF-CBO keeps with and without the Heuristic 7 cap. All four are
// deterministic, so Table2.Check can assert on them.
type PlanRow struct {
	Query             int
	CostPost, CostCBO float64
	PlansKept         int // BF-CBO, §4.1 default heuristics
	PlansKeptH7       int // BF-CBO, H7MaxSubPlans = h7MaxSubPlans
}

// planRows plans every TPC-H block (not only the analyzed ones: the cost
// claim is about the search, not about which queries gain), on its first
// call; later calls return the same rows.
func (h *Harness) planRows() ([]PlanRow, error) {
	if h.plans != nil {
		return h.plans, nil
	}
	var out []PlanRow
	for _, q := range tpch.All() {
		optimize := func(mode optimizer.Mode, h7Cap int) (*optimizer.Result, error) {
			opts := h.options(mode)
			opts.Heuristics.H7MaxSubPlans = h7Cap
			res, err := optimizer.Optimize(q.Build(h.ds.Schema), opts)
			if err != nil {
				return nil, fmt.Errorf("bench: Q%d %s: %w", q.Num, mode, err)
			}
			return res, nil
		}
		post, err := optimize(optimizer.BFPost, 0)
		if err != nil {
			return nil, err
		}
		cbo, err := optimize(optimizer.BFCBO, 0)
		if err != nil {
			return nil, err
		}
		capped, err := optimize(optimizer.BFCBO, h7MaxSubPlans)
		if err != nil {
			return nil, err
		}
		out = append(out, PlanRow{
			Query:    q.Num,
			CostPost: post.Plan.Root.EstCost(), CostCBO: cbo.Plan.Root.EstCost(),
			PlansKept: cbo.PlansKept, PlansKeptH7: capped.PlansKept,
		})
	}
	h.plans = out
	return out, nil
}

// Table2 reproduces the paper's Table 2 (and Fig. 5): normalized latencies
// and planner times across the analyzed queries.
type Table2 struct {
	// Profile names the cost profile every plan in the table was costed
	// under; estimated costs compare only within it.
	Profile string
	Rows    []Row
	// Plans holds the plan-only comparison over all 22 TPC-H blocks.
	Plans []PlanRow
	// Totals mirror the paper's "total" line.
	TotalNormPost, TotalNormCBO, TotalPct      float64
	TotalPlannerPostMS, TotalPlannerCBOMS      float64
	MeanMAEPost, MeanMAECBO, MAEImprovementPct float64
}

// RunTable2 runs the full three-mode comparison over the analyzed queries
// (or a custom subset).
func (h *Harness) RunTable2(queries []int) (*Table2, error) {
	return h.runTable(queries, h.options(optimizer.BFCBO))
}

// RunTable3 is Table 2 with BF-CBO planned under Heuristic 7 (cap
// h7MaxSubPlans). The heuristic prunes BF-CBO's Bloom filter sub-plans
// only, so the No-BF and BF-Post columns are Table 2's cells.
func (h *Harness) RunTable3(queries []int) (*Table2, error) {
	cbo := h.options(optimizer.BFCBO)
	cbo.Heuristics.H7MaxSubPlans = h7MaxSubPlans
	return h.runTable(queries, cbo)
}

// runTable compares No-BF, BF-Post and BF-CBO, the last planned with
// cboOpts, over queries.
func (h *Harness) runTable(queries []int, cboOpts optimizer.Options) (*Table2, error) {
	if len(queries) == 0 {
		queries = tpch.Analyzed()
	}
	t := &Table2{Profile: cboOpts.Cost.Name}
	var err error
	if t.Plans, err = h.planRows(); err != nil {
		return nil, err
	}
	var sumNoBF, sumPost, sumCBO time.Duration
	var maePostSum, maeCBOSum float64
	for _, num := range queries {
		noBF, err := h.RunQuery(num, optimizer.NoBF)
		if err != nil {
			return nil, err
		}
		post, err := h.RunQuery(num, optimizer.BFPost)
		if err != nil {
			return nil, err
		}
		cbo, err := h.runQuery(num, cboOpts)
		if err != nil {
			return nil, err
		}
		if post.OutputRows != noBF.OutputRows || cbo.OutputRows != noBF.OutputRows {
			return nil, fmt.Errorf("bench: Q%d result mismatch across modes: %d/%d/%d rows",
				num, noBF.OutputRows, post.OutputRows, cbo.OutputRows)
		}
		base := noBF.Latency.Seconds()
		if base <= 0 {
			base = 1e-9
		}
		row := Row{
			Query:         num,
			NormPost:      post.Latency.Seconds() / base,
			NormCBO:       cbo.Latency.Seconds() / base,
			PlannerPostMS: post.PlannerTime.Seconds() * 1000,
			PlannerCBOMS:  cbo.PlannerTime.Seconds() * 1000,
			PlanChanged:   post.JoinOrderSig != cbo.JoinOrderSig,
			BloomsPost:    post.Blooms,
			BloomsCBO:     cbo.Blooms,
			MAEPost:       post.MAE,
			MAECBO:        cbo.MAE,
		}
		row.PctImprovement = 100 * (1 - row.NormCBO/row.NormPost)
		t.Rows = append(t.Rows, row)
		sumNoBF += noBF.Latency
		sumPost += post.Latency
		sumCBO += cbo.Latency
		t.TotalPlannerPostMS += row.PlannerPostMS
		t.TotalPlannerCBOMS += row.PlannerCBOMS
		maePostSum += post.MAE
		maeCBOSum += cbo.MAE
	}
	t.TotalNormPost = sumPost.Seconds() / sumNoBF.Seconds()
	t.TotalNormCBO = sumCBO.Seconds() / sumNoBF.Seconds()
	t.TotalPct = 100 * (1 - t.TotalNormCBO/t.TotalNormPost)
	t.MeanMAEPost = maePostSum / float64(len(queries))
	t.MeanMAECBO = maeCBOSum / float64(len(queries))
	if t.MeanMAEPost > 0 {
		t.MAEImprovementPct = 100 * (1 - t.MeanMAECBO/t.MeanMAEPost)
	}
	return t, nil
}

// Check states Table 2's and Table 3's claims: searching with Bloom
// filters never yields a costlier plan than adding them afterwards, on any
// TPC-H block; Heuristic 7 never keeps more sub-plans than the default;
// and BF-CBO's cardinality estimates are closer to the observed rows than
// BF-Post's across the executed queries.
func (t *Table2) Check() error {
	var errs []error
	for _, p := range t.Plans {
		if p.CostCBO > p.CostPost {
			errs = append(errs, fmt.Errorf("plan cost: Q%d BF-CBO est. cost %.6g above BF-Post's %.6g",
				p.Query, p.CostCBO, p.CostPost))
		}
		if p.PlansKeptH7 > p.PlansKept {
			errs = append(errs, fmt.Errorf("Heuristic 7: Q%d keeps %d sub-plans under the cap, %d without",
				p.Query, p.PlansKeptH7, p.PlansKept))
		}
	}
	if t.MeanMAECBO >= t.MeanMAEPost {
		errs = append(errs, fmt.Errorf("estimate MAE: BF-CBO mean %.4g not below BF-Post's %.4g",
			t.MeanMAECBO, t.MeanMAEPost))
	}
	return errors.Join(errs...)
}

// Print renders the table in the paper's layout.
func (t *Table2) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s (%s cost profile)\n", title, t.Profile)
	fmt.Fprintf(w, "%-4s %9s %9s %7s %12s %12s %6s %6s %5s\n",
		"Q#", "BF-Post", "BF-CBO", "%down", "plan-ms Post", "plan-ms CBO", "BF(P)", "BF(C)", "diff")
	for _, r := range t.Rows {
		mark := " "
		if r.PlanChanged {
			mark = "*"
		}
		fmt.Fprintf(w, "%-4d %9.3f %9.3f %7.1f %12.2f %12.2f %6d %6d %5s\n",
			r.Query, r.NormPost, r.NormCBO, r.PctImprovement,
			r.PlannerPostMS, r.PlannerCBOMS, r.BloomsPost, r.BloomsCBO, mark)
	}
	fmt.Fprintf(w, "%-4s %9.3f %9.3f %7.1f %12.2f %12.2f\n",
		"tot", t.TotalNormPost, t.TotalNormCBO, t.TotalPct,
		t.TotalPlannerPostMS, t.TotalPlannerCBOMS)
	t.printMAESummary(w)
	fmt.Fprintf(w, "(* = BF-CBO selected a different join order than BF-Post)\n")
	var cheaper, kept, keptH7 int
	for _, p := range t.Plans {
		if p.CostCBO <= p.CostPost {
			cheaper++
		}
		kept += p.PlansKept
		keptH7 += p.PlansKeptH7
	}
	fmt.Fprintf(w, "plan search, all %d TPC-H blocks: BF-CBO est. cost <= BF-Post on %d; sub-plans kept %d, %d under Heuristic 7 (cap %d)\n",
		len(t.Plans), cheaper, kept, keptH7, h7MaxSubPlans)
}

// PrintMAE renders the per-query cardinality-estimation comparison behind
// Table 2's MAE line.
func (t *Table2) PrintMAE(w io.Writer) {
	fmt.Fprintf(w, "cardinality estimation MAE (plan nodes, est. vs observed rows)\n")
	fmt.Fprintf(w, "%-4s %14s %14s\n", "Q#", "BF-Post", "BF-CBO")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-4d %14.1f %14.1f\n", r.Query, r.MAEPost, r.MAECBO)
	}
	t.printMAESummary(w)
}

func (t *Table2) printMAESummary(w io.Writer) {
	fmt.Fprintf(w, "cardinality MAE: BF-Post %.4g, BF-CBO %.4g (%.1f%% improvement)\n",
		t.MeanMAEPost, t.MeanMAECBO, t.MAEImprovementPct)
}

// Figure is the paper's figure-style plan analysis for one query (Figs. 1,
// 4 and 6): the same query planned and executed under BF-Post and BF-CBO.
type Figure struct {
	Post, CBO *QueryRun
}

// RunFigure runs one query under both Bloom-filter modes.
func (h *Harness) RunFigure(num int) (*Figure, error) {
	post, err := h.RunQuery(num, optimizer.BFPost)
	if err != nil {
		return nil, err
	}
	cbo, err := h.RunQuery(num, optimizer.BFCBO)
	if err != nil {
		return nil, err
	}
	return &Figure{Post: post, CBO: cbo}, nil
}

// Check states what the figures show: with Bloom filters inside the search
// the optimizer picks a different join order that is no costlier by its
// own estimate, the plan carries filters that actually run, and the answer
// is unchanged. Figure 1 additionally shows BF-Post finding no filter at
// all on Q12 (Heuristic 3 forbids the only candidate of its join order);
// Figure 6 shows predicate transfer on Q7, which takes a chain of filters.
func (f *Figure) Check() error {
	q := f.CBO.Query
	var errs []error
	if f.Post.OutputRows != f.CBO.OutputRows {
		errs = append(errs, fmt.Errorf("same answer: Q%d returns %d rows under BF-Post, %d under BF-CBO",
			q, f.Post.OutputRows, f.CBO.OutputRows))
	}
	if f.Post.JoinOrderSig == f.CBO.JoinOrderSig {
		errs = append(errs, fmt.Errorf("join-order flip: Q%d is %s under both BF-Post and BF-CBO",
			q, f.CBO.JoinOrderSig))
	}
	if f.CBO.EstCost > f.Post.EstCost {
		errs = append(errs, fmt.Errorf("plan cost: Q%d BF-CBO est. cost %.6g above BF-Post's %.6g",
			q, f.CBO.EstCost, f.Post.EstCost))
	}
	if f.CBO.Blooms == 0 {
		errs = append(errs, fmt.Errorf("Bloom filters: Q%d lost its Bloom filter under BF-CBO", q))
	} else if len(f.CBO.Actuals.BloomStats) == 0 {
		errs = append(errs, fmt.Errorf("Bloom filters: Q%d plans %d under BF-CBO but none reported at run time",
			q, f.CBO.Blooms))
	}
	switch q {
	case 12:
		if f.Post.Blooms != 0 {
			errs = append(errs, fmt.Errorf("Figure 1: BF-Post should find no Bloom filter on Q12, has %d", f.Post.Blooms))
		}
	case 7:
		if f.CBO.Blooms < 2 {
			errs = append(errs, fmt.Errorf("Figure 6: predicate transfer on Q7 needs a chain of Bloom filters, BF-CBO has %d", f.CBO.Blooms))
		}
	}
	return errors.Join(errs...)
}

// Print renders plans and their EXPLAIN ANALYZE for BF-Post versus BF-CBO.
func (f *Figure) Print(w io.Writer) {
	for _, qr := range []*QueryRun{f.Post, f.CBO} {
		fmt.Fprintf(w, "=== Q%d  %s  latency=%s  planner=%s  blooms=%d\n",
			qr.Query, qr.Mode, qr.Latency.Round(time.Microsecond), qr.PlannerTime.Round(time.Microsecond), qr.Blooms)
		fmt.Fprint(w, qr.Plan.Explain())
		fmt.Fprint(w, qr.Actuals.ExplainAnalyze(qr.Plan))
	}
}

// NaiveRow is one line of the §3.1 blow-up experiment.
type NaiveRow struct {
	Tables        int
	NaiveMS       float64
	TwoPhaseMS    float64
	NaivePlans    int
	TwoPhasePlans int
	NaiveDNF      bool
}

// NaiveBlowup is the §3.1 experiment, one row per chain length in
// ascending order.
type NaiveBlowup []NaiveRow

// RunNaiveBlowup measures planner latency of the naive single-pass approach
// versus the two-phase BF-CBO on synthetic chain joins of growing size,
// reproducing the 28 ms / 375 ms / 56 s / DNF progression of §3.1 in shape.
func (h *Harness) RunNaiveBlowup(minTables, maxTables int, capPlans int) (NaiveBlowup, error) {
	var out NaiveBlowup
	for n := minTables; n <= maxTables; n++ {
		row := NaiveRow{Tables: n}

		opts := h.options(optimizer.BFCBO)
		opts.Heuristics.H2MinApplyRows = 1
		opts.Heuristics.H6MaxKeepFraction = 0.95
		opts.Heuristics.H5MaxBuildNDV = 1e12
		res, err := optimizer.Optimize(naiveChain(n), opts)
		if err != nil {
			return nil, err
		}
		row.TwoPhaseMS = res.PlanningTime.Seconds() * 1000
		row.TwoPhasePlans = res.PlansKept

		nOpts := h.options(optimizer.Naive)
		nOpts.MaxPlansPerSet = capPlans
		nres, err := optimizer.Optimize(naiveChain(n), nOpts)
		switch {
		case err == optimizer.ErrSearchSpaceExceeded:
			row.NaiveDNF = true
		case err != nil:
			return nil, err
		default:
			row.NaiveMS = nres.PlanningTime.Seconds() * 1000
			row.NaivePlans = nres.PlansKept
		}
		out = append(out, row)
	}
	return out, nil
}

// naiveChain builds an n-table chain query with a selective filter at the
// far end so Bloom filters look attractive everywhere.
func naiveChain(n int) *query.Block {
	b := &query.Block{Name: fmt.Sprintf("naive-chain-%d", n)}
	rows := 5e6
	for i := 0; i < n; i++ {
		t := chainTable(fmt.Sprintf("nc%d", i), rows)
		var pred query.Predicate
		if i == n-1 {
			pred = query.CmpInt{Col: "v", Op: query.LT, Val: 5}
		}
		b.Relations = append(b.Relations, query.Relation{Alias: t.Name, Table: t, Pred: pred})
		if i > 0 {
			b.Clauses = append(b.Clauses, query.JoinClause{
				Type: query.Inner, LeftRel: i - 1, LeftCol: "fk", RightRel: i, RightCol: "fk"})
		}
		rows /= 3
	}
	return b
}

// chainTable builds a synthetic catalog table for the blow-up experiment.
func chainTable(name string, rows float64) *catalog.Table {
	t := catalog.NewTable(name, rows, []catalog.Column{
		{Name: "pk", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows, Min: 0, Max: rows}},
		{Name: "fk", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows / 4, Min: 0, Max: rows / 4}},
		{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 1000}},
	})
	t.PrimaryKey = "pk"
	return t
}

// Check states §3.1's claim in sub-plans kept, the quantity the planning
// times follow: the naive search space grows with every added table and,
// from four tables on, exceeds what the two-phase search keeps. Hitting the
// plan cap (DNF) counts as larger than any finite count.
func (rows NaiveBlowup) Check() error {
	var errs []error
	for i, r := range rows {
		if i > 0 {
			prev := rows[i-1]
			if !r.NaiveDNF && (prev.NaiveDNF || r.NaivePlans <= prev.NaivePlans) {
				errs = append(errs, fmt.Errorf("naive blow-up: %d plans kept on %d tables, not above the %s on %d tables",
					r.NaivePlans, r.Tables, prev.naivePlans(), prev.Tables))
			}
		}
		if r.Tables >= 4 && !r.NaiveDNF && r.NaivePlans <= r.TwoPhasePlans {
			errs = append(errs, fmt.Errorf("naive blow-up: on %d tables naive keeps %d plans, two-phase %d",
				r.Tables, r.NaivePlans, r.TwoPhasePlans))
		}
	}
	return errors.Join(errs...)
}

// Print renders the blow-up table.
func (rows NaiveBlowup) Print(w io.Writer) {
	fmt.Fprintf(w, "naive vs two-phase planning time (chain joins)\n")
	fmt.Fprintf(w, "%-7s %12s %12s %12s %12s\n", "tables", "naive-ms", "2phase-ms", "naive-plans", "2phase-plans")
	for _, r := range rows {
		naive := fmt.Sprintf("%.2f", r.NaiveMS)
		if r.NaiveDNF {
			naive = "DNF"
		}
		fmt.Fprintf(w, "%-7d %12s %12.2f %12s %12d\n", r.Tables, naive, r.TwoPhaseMS, r.naivePlans(), r.TwoPhasePlans)
	}
}

func (r NaiveRow) naivePlans() string {
	if r.NaiveDNF {
		return "DNF"
	}
	return strconv.Itoa(r.NaivePlans)
}
