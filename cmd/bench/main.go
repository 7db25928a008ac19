// Command bench regenerates the paper's tables and figures on the
// in-memory TPC-H substrate and checks the claim each one makes. The claims
// are about the paper's environment, so every experiment plans under the
// paper cost profile (optimizer.PaperOptions); calibrate alone also plans
// under the engine's own (optimizer.DefaultOptions) and holds the two
// against each other.
//
//	bench -experiment table2   # Table 2 + Fig. 5: No-BF vs BF-Post vs BF-CBO
//	bench -experiment table3   # Table 3: same with Heuristic 7 enabled
//	bench -experiment fig1     # Figure 1: Q12 plan analysis
//	bench -experiment fig4     # Figure 4: §3 running example (Q12 is its TPC-H instance)
//	bench -experiment fig6     # Figure 6: Q7 plan analysis
//	bench -experiment naive    # §3.1 naive planning-time blow-up
//	bench -experiment mae      # Table 2's cardinality-MAE comparison
//	bench -experiment ablation # per-heuristic ablation
//	bench -experiment calibrate # both cost profiles x {BF-Post, BF-CBO}: build sides and work
//	bench -experiment all      # everything
//
// Each experiment prints its table and then runs the result's Check; a
// claim that no longer reproduces is reported on stderr and the exit
// status is non-zero. The checks read deterministic quantities only, so
// the printed latencies are for reading — performance is measured by
// `bash benchmark/run.sh`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bfcbo/internal/bench"
)

func main() {
	def := bench.DefaultConfig()
	var (
		sf   = flag.Float64("sf", def.ScaleFactor, "TPC-H scale factor")
		seed = flag.Uint64("seed", def.Seed, "data generation seed")
		dop  = flag.Int("dop", def.DOP, "degree of parallelism")
		reps = flag.Int("reps", def.Reps, "repetitions per query (first is warm-up)")
		exp  = flag.String("experiment", "all", "table2|table3|fig1|fig4|fig6|naive|mae|ablation|calibrate|all")
	)
	flag.Parse()
	cfg := bench.Config{ScaleFactor: *sf, Seed: *seed, DOP: *dop, Reps: *reps}
	if err := run(os.Stdout, cfg, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// experiment runs one of the paper's experiments on h, prints it to w and
// returns the outcome of its check.
type experiment struct {
	name string
	h7   bool // plan with the Heuristic 7 sub-plan cap (Table 3)
	run  func(w io.Writer, h *bench.Harness) error
}

var experiments = []experiment{
	{name: "table2", run: table(func(t *bench.Table2, w io.Writer) {
		t.Print(w, "Table 2 / Figure 5 — normalized TPC-H latencies")
	})},
	{name: "table3", h7: true, run: table(func(t *bench.Table2, w io.Writer) {
		t.Print(w, "Table 3 — Heuristic 7 enabled")
	})},
	{name: "fig1", run: figure(12, "Figure 1 — TPC-H Q12 join order with/without BF-CBO")},
	{name: "fig4", run: figure(12, "Figure 4 — running-example shape (Q12 as the 2-join instance)")},
	{name: "fig6", run: figure(7, "Figure 6 — TPC-H Q7 join order and predicate transfer")},
	{name: "naive", run: func(w io.Writer, h *bench.Harness) error {
		rows, err := h.RunNaiveBlowup(3, 6, 2_000_000)
		if err != nil {
			return err
		}
		rows.Print(w)
		return rows.Check()
	}},
	{name: "mae", run: table((*bench.Table2).PrintMAE)},
	{name: "ablation", run: func(w io.Writer, h *bench.Harness) error {
		rows, err := h.RunAblation(nil)
		if err != nil {
			return err
		}
		rows.Print(w)
		return rows.Check()
	}},
	{name: "calibrate", run: func(w io.Writer, h *bench.Harness) error {
		c, err := h.RunCalibration()
		if err != nil {
			return err
		}
		c.Print(w)
		return c.Check()
	}},
}

// table runs the three-mode comparison; Tables 2 and 3 and the MAE
// listing are three prints of it.
func table(render func(*bench.Table2, io.Writer)) func(io.Writer, *bench.Harness) error {
	return func(w io.Writer, h *bench.Harness) error {
		t, err := h.RunTable2(nil)
		if err != nil {
			return err
		}
		render(t, w)
		return t.Check()
	}
}

func figure(q int, title string) func(io.Writer, *bench.Harness) error {
	return func(w io.Writer, h *bench.Harness) error {
		f, err := h.RunFigure(q)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		f.Print(w)
		return f.Check()
	}
}

// run executes the named experiment, or every one under "all" — there it
// keeps going past a failed claim so one run reports them all.
func run(w io.Writer, cfg bench.Config, exp string) error {
	var selected []experiment
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	fmt.Fprintf(w, "SF %g, seed %d, DOP %d, %d rep(s) per query; plans costed under the paper profile (calibrate: under both)\n\n",
		cfg.ScaleFactor, cfg.Seed, cfg.DOP, cfg.Reps)
	var errs []error
	for _, e := range selected {
		cfg.Heuristic7 = e.h7
		h, err := bench.NewHarness(cfg)
		if err != nil {
			return err
		}
		if err := e.run(w, h); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Fprintln(w)
	}
	return errors.Join(errs...)
}
