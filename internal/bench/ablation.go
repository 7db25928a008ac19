package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/tpch"
)

// AblationRow measures one heuristic configuration over the analyzed suite.
type AblationRow struct {
	Name           string
	TotalLatency   time.Duration
	TotalPlannerMS float64
	TotalBlooms    int
	// TotalRows sums the suite's output rows: a heuristic may change the
	// plan, never the answer.
	TotalRows int
}

// Ablation is the per-heuristic ablation; the first row is the baseline.
type Ablation []AblationRow

// RunAblation toggles each search-space heuristic individually and reports
// total suite latency, planner time and Bloom filter counts — the tuning
// trade-off the paper's §5 flags as future work.
func (h *Harness) RunAblation(queries []int) (Ablation, error) {
	if len(queries) == 0 {
		queries = tpch.Analyzed()
	}
	type variant struct {
		name string
		mut  func(*optimizer.Options)
	}
	variants := []variant{
		{"baseline (paper §4.1)", func(o *optimizer.Options) {}},
		{"H1 off (both sides unguarded)", func(o *optimizer.Options) { o.Heuristics.H1LargerOnly = false }},
		{"H2 off (no min-rows)", func(o *optimizer.Options) { o.Heuristics.H2MinApplyRows = 0 }},
		{"H3 off (keep lossless-PK BFs)", func(o *optimizer.Options) { o.Heuristics.H3FKLosslessPK = false }},
		{"H5 off (no size cap)", func(o *optimizer.Options) { o.Heuristics.H5MaxBuildNDV = 0 }},
		{"H6 off (keep weak BFs)", func(o *optimizer.Options) { o.Heuristics.H6MaxKeepFraction = 0 }},
		{"H7 on (cap=4)", func(o *optimizer.Options) { o.Heuristics.H7MaxSubPlans = 4 }},
		{"H9 on (both sides, guarded)", func(o *optimizer.Options) { o.Heuristics.H9BothSides = true }},
		{"no post-pass (§3.7 off)", func(o *optimizer.Options) { o.DisablePostPass = true }},
	}
	var out Ablation
	for _, v := range variants {
		row := AblationRow{Name: v.name}
		for _, num := range queries {
			q, ok := tpch.Get(num)
			if !ok {
				return nil, fmt.Errorf("bench: unknown query %d", num)
			}
			opts := h.options(optimizer.BFCBO)
			v.mut(&opts)
			block := q.Build(h.ds.Schema)
			res, err := optimizer.Optimize(block, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %q Q%d: %w", v.name, num, err)
			}
			row.TotalPlannerMS += res.PlanningTime.Seconds() * 1000
			row.TotalBlooms += res.Plan.CountBlooms()
			start := time.Now()
			r, err := exec.Run(h.ds.DB, block, res.Plan, exec.Options{DOP: h.cfg.DOP})
			if err != nil {
				return nil, fmt.Errorf("bench: ablation %q Q%d exec: %w", v.name, num, err)
			}
			row.TotalLatency += time.Since(start)
			row.TotalRows += r.Rows
		}
		out = append(out, row)
	}
	return out, nil
}

// Check states what the ablation relies on: every variant planned and
// executed the suite (RunAblation fails otherwise) and returned the
// baseline's rows.
func (rows Ablation) Check() error {
	var errs []error
	for _, r := range rows {
		if r.TotalRows != rows[0].TotalRows {
			errs = append(errs, fmt.Errorf("ablation: %q returns %d rows over the suite, %q %d",
				r.Name, r.TotalRows, rows[0].Name, rows[0].TotalRows))
		}
	}
	return errors.Join(errs...)
}

// Print renders the ablation table.
func (rows Ablation) Print(w io.Writer) {
	fmt.Fprintf(w, "heuristic ablation (BF-CBO over analyzed TPC-H queries)\n")
	fmt.Fprintf(w, "%-32s %14s %12s %8s %8s\n", "variant", "total-latency", "planner-ms", "blooms", "rows")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %14s %12.2f %8d %8d\n",
			r.Name, r.TotalLatency.Round(time.Microsecond), r.TotalPlannerMS, r.TotalBlooms, r.TotalRows)
	}
}
