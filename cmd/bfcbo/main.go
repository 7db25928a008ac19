// Command bfcbo plans and executes a query over a generated TPC-H dataset,
// printing the physical plan (with Bloom filter annotations), the join
// order, and the observed latencies. Compare modes with -mode.
//
// Examples:
//
//	bfcbo -q 12 -mode bfcbo
//	bfcbo -q 12 -mode bfpost
//	bfcbo -sql "SELECT * FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l.l_shipmode IN ('MAIL','SHIP')"
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"bfcbo"
	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
)

func main() {
	var cfg bfcbo.Config
	flag.Float64Var(&cfg.ScaleFactor, "sf", 0.01, "TPC-H scale factor")
	flag.Uint64Var(&cfg.Seed, "seed", 0, "data generation seed (0 = default)")
	flag.IntVar(&cfg.DOP, "dop", 8, "degree of parallelism")
	flag.IntVar(&cfg.MaxConcurrent, "max-concurrent", 0, "admission cap on concurrent queries (0 = unlimited)")
	var rf runFlags
	flag.StringVar(&rf.faults, "faults", "", `deterministic fault-injection spec, e.g. "seed=42,spill.write=0.01,exec.panic=0.005,spill.diskfull=64MB" (empty = injector off)`)
	flag.IntVar(&rf.qnum, "q", 0, "TPC-H query number (1-22)")
	flag.StringVar(&rf.sql, "sql", "", "SQL text (overrides -q)")
	flag.StringVar(&rf.mode, "mode", "bfcbo", "optimizer mode: nobf | bfpost | bfcbo | naive")
	flag.StringVar(&rf.budget, "mem-budget", "", `executor memory budget, e.g. "64MB" (empty = unlimited); under a budget every join runs as a hash join, and one over budget spills to temp files`)
	flag.DurationVar(&rf.timeout, "timeout", 0, "per-query deadline (0 = none); expiry cancels the run mid-pipeline")
	flag.IntVar(&rf.streams, "streams", 1, "run the query this many times concurrently through the engine scheduler")
	flag.StringVar(&rf.obsAddr, "obs-listen", "", `serve observability endpoints (/metrics, /query, /debug/queries[/live|/kill], /debug/trace/<id>, /debug/workload, /debug/pprof/) on this address, e.g. ":8080"; the process keeps serving after the query finishes until Ctrl-C, then shuts the server down gracefully`)
	flag.StringVar(&rf.traceOut, "trace-out", "", "write the run's query-lifecycle trace(s) as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	flag.Parse()
	if err := run(cfg, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bfcbo:", err)
		os.Exit(1)
	}
}

// runFlags are the flags that shape one run of the CLI rather than the
// engine it opens.
type runFlags struct {
	qnum, streams             int
	sql, mode, budget, faults string
	timeout                   time.Duration
	obsAddr, traceOut         string
}

func run(cfg bfcbo.Config, rf runFlags) error {
	mode, err := parseMode(rf.mode)
	if err != nil {
		return err
	}
	if cfg.MemBudget, err = mem.ParseBytes(rf.budget); err != nil {
		return err
	}
	// The injector is process-wide: installed here, it covers every
	// query this process runs.
	inj, err := faults.Parse(rf.faults)
	if err != nil {
		return err
	}
	faults.Enable(inj)
	eng, err := bfcbo.Open(cfg)
	if err != nil {
		return err
	}
	// The obs server's lifecycle is owned here: serve errors land in lnErr
	// (a late listen failure — port stolen, fd exhaustion — surfaces at
	// exit instead of being dropped), and shutdown() drains in-flight
	// scrapes with a timeout instead of leaking the listener.
	var lnErr chan error
	shutdown := func() error { return nil }
	if rf.obsAddr != "" {
		h := &obs.Handler{
			Registry: eng.MetricsRegistry(), Recorder: eng.FlightRecorder(),
			Inspector: eng.Inspector(), Workload: eng.Workload(),
			RunSQL: func(ctx context.Context, sql string) (int, error) {
				o, err := eng.RunSQLContext(ctx, sql, mode)
				if err != nil {
					return 0, err
				}
				return o.Rows, nil
			},
		}
		srv := &http.Server{Addr: rf.obsAddr, Handler: h}
		lnErr = make(chan error, 1)
		go func() {
			err := srv.ListenAndServe()
			if err == http.ErrServerClosed {
				err = nil
			}
			lnErr <- err
		}()
		select {
		case err := <-lnErr:
			if err == nil {
				err = fmt.Errorf("server closed before serving")
			}
			return fmt.Errorf("obs-listen: %w", err)
		case <-time.After(50 * time.Millisecond):
			fmt.Printf("observability on http://%s/metrics\n", rf.obsAddr)
		}
		var once sync.Once
		var shutErr error
		shutdown = func() error {
			once.Do(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					shutErr = fmt.Errorf("obs-listen shutdown: %w", err)
					return
				}
				if err := <-lnErr; err != nil {
					shutErr = fmt.Errorf("obs-listen: %w", err)
				}
			})
			return shutErr
		}
		defer shutdown() //nolint:errcheck // error path reported by the explicit call
	}
	runOne := func() (*bfcbo.Output, error) {
		ctx := context.Background()
		if rf.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, rf.timeout)
			defer cancel()
		}
		if rf.sql != "" {
			return eng.RunSQLContext(ctx, rf.sql, mode)
		}
		if rf.qnum >= 1 && rf.qnum <= 22 {
			b, err := eng.TPCH(rf.qnum)
			if err != nil {
				return nil, err
			}
			return eng.RunContext(ctx, b, mode)
		}
		return nil, fmt.Errorf("pass -q 1..22 or -sql (see -h)")
	}
	var out *bfcbo.Output
	var traces []*obs.Trace
	if rf.streams > 1 {
		// Concurrency demo: the same query on every stream, sharing the
		// engine's worker-slot pool and memory budget.
		outs := make([]*bfcbo.Output, rf.streams)
		errs := make([]error, rf.streams)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < rf.streams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if outs[i], errs[i] = runOne(); errs[i] != nil {
					errs[i] = fmt.Errorf("stream %d: %w", i, errs[i])
				}
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		for i, o := range outs {
			fmt.Printf("stream %d: rows=%d exec=%s queue-wait=%s slot-busy=%s\n",
				i, o.Rows, o.ExecTime.Round(time.Microsecond),
				o.Sched.QueueWait.Round(time.Microsecond),
				o.Sched.SlotBusy.Round(time.Microsecond))
		}
		fmt.Printf("%d streams in %s (%.1f queries/s)\n",
			rf.streams, wall.Round(time.Microsecond), float64(rf.streams)/wall.Seconds())
		out = outs[0]
		for _, o := range outs {
			traces = append(traces, o.Trace)
		}
	} else if out, err = runOne(); err != nil {
		return err
	} else {
		traces = append(traces, out.Trace)
	}
	fmt.Print(out.Explain())
	fmt.Printf("join order: %s\n", out.JoinOrder)
	fmt.Printf("rows=%d  blooms=%d  plan=%s  exec=%s\n",
		out.Rows, out.Blooms, out.PlanningTime, out.ExecTime)
	if out.Spill.Spilled() {
		fmt.Printf("spilled %s across %d partition/run files (recursion depth %d, peak memory %s)\n",
			mem.FormatBytes(out.Spill.Bytes), out.Spill.Partitions, out.Spill.Depth,
			mem.FormatBytes(eng.MemoryBroker().Peak()))
	}
	for _, bs := range out.BloomStats {
		fmt.Println(bs)
	}
	if rf.traceOut != "" {
		if err := writeTrace(rf.traceOut, traces); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d queries)\n", rf.traceOut, len(traces))
	}
	if rf.obsAddr != "" {
		// Keep serving until interrupted, then shut the server down
		// gracefully — draining in-flight scrapes — instead of dying with
		// the listener open. The line is printed once the signals are
		// caught, so a script that waits for it can signal safely.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		fmt.Println("serving observability endpoints; Ctrl-C to exit")
		<-ctx.Done()
		stop()
		fmt.Println("\nshutting down observability server")
	}
	return shutdown()
}

// writeTrace exports the traces as one Chrome trace-event file at path. The
// bytes are checked by the validator behind /debug/trace/<id> first, so a
// malformed export is an error here, not a surprise in chrome://tracing.
func writeTrace(path string, traces []*obs.Trace) error {
	var buf bytes.Buffer
	if err := obs.WriteChromeAll(&buf, traces); err != nil {
		return err
	}
	if err := obs.ValidateChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func parseMode(s string) (bfcbo.Mode, error) {
	switch strings.ToLower(s) {
	case "nobf":
		return bfcbo.NoBF, nil
	case "bfpost":
		return bfcbo.BFPost, nil
	case "bfcbo":
		return bfcbo.BFCBO, nil
	case "naive":
		return bfcbo.Naive, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}
