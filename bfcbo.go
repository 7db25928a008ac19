// Package bfcbo is the public API of the BF-CBO reproduction: a cost-based
// query engine whose bottom-up optimizer can include Bloom filters directly
// in join enumeration (the method of Zeyl et al., "Including Bloom Filters
// in Bottom-up Optimization", SIGMOD-Companion 2025), together with an
// in-memory TPC-H data generator, an SMP executor, and the BF-Post / No-BF
// baselines the paper compares against.
//
// Quickstart:
//
//	eng, err := bfcbo.Open(bfcbo.Config{ScaleFactor: 0.01})
//	q, err := eng.ParseSQL(`SELECT * FROM orders o, lineitem l
//	                        WHERE o.o_orderkey = l.l_orderkey
//	                          AND l.l_shipmode IN ('MAIL','SHIP')`)
//	out, err := eng.Run(q, bfcbo.BFCBO)
//	fmt.Println(out.Explain(), out.Rows)
package bfcbo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/sqlparser"
	"bfcbo/internal/tpch"
)

// Mode selects the optimizer strategy; see the package doc of
// internal/optimizer for semantics.
type Mode = optimizer.Mode

// The four optimizer modes.
const (
	NoBF   = optimizer.NoBF
	BFPost = optimizer.BFPost
	BFCBO  = optimizer.BFCBO
	Naive  = optimizer.Naive
)

// Config configures an engine instance.
type Config struct {
	// ScaleFactor sizes the generated TPC-H dataset (1.0 ≈ 1 GB of the
	// official benchmark; 0.01–0.1 is laptop-friendly). Required.
	ScaleFactor float64
	// Seed fixes data generation; 0 uses a built-in default.
	Seed uint64
	// DOP is the degree of parallelism for execution: the workers each
	// pipeline runs and the size of the worker-slot pool all queries
	// share. Planning never reads it. 0 defaults to 8.
	DOP int
	// MemBudget bounds the bytes of operator state the executor holds in
	// RAM (0 = unlimited). Under a budget a hash build whose memory grant
	// is denied spills to temp files (grace hash join) and still returns
	// exact results; spill activity is reported in Output.Spill and
	// EXPLAIN ANALYZE. All queries of one engine draw
	// from a single shared broker, so concurrent Run calls share the
	// budget.
	MemBudget int64
	// SpillDir is the parent directory for spill files ("" = os.TempDir()).
	// Every run owns — and removes — its own query-scoped spill
	// subdirectory, even on error, so concurrent queries never touch each
	// other's temp files.
	SpillDir string
	// MaxConcurrent caps the queries the engine admits at once; further
	// RunContext calls queue FIFO behind them until admitted or until
	// their context is canceled or expires. 0 means unlimited admission
	// (the DOP-sized worker-slot pool still bounds actual parallelism).
	MaxConcurrent int
	// SlowQueryLog sizes the engine's flight recorder — the ring of recent
	// queries retained with their EXPLAIN ANALYZE (rendered when read, from
	// the plan and runtime stats the record keeps), scheduler/memory/spill
	// stats, and lifecycle trace (served at /debug/queries when the debug
	// endpoints are enabled). 0 defaults to 32; negative disables recording.
	SlowQueryLog int
	// WorkloadHistory sizes the engine's workload history store — the
	// bounded per-fingerprint aggregate (exec count, p50/p95 latency,
	// observed-vs-estimated operator rows, spill bytes) keyed by each
	// query's normalized shape, served at /debug/workload. 0 defaults to
	// obs.DefaultWorkloadShapes; negative disables the store.
	WorkloadHistory int
}

// SchedStat is the per-query scheduling report: admission queue wait and
// worker-slot waits and occupancy. See sched.Stat for field semantics.
type SchedStat = sched.Stat

// Engine bundles a generated database with planner, executor, and the
// process-wide query scheduler all its runs are admitted through.
type Engine struct {
	cfg     Config
	ds      *datagen.Dataset
	broker  *mem.Broker
	sched   *sched.Scheduler
	reg     *obs.Registry
	metrics *obs.Metrics
	rec     *obs.FlightRecorder
	insp    *obs.Inspector
	work    *obs.WorkloadStore
}

// Open generates the TPC-H dataset and returns a ready engine.
func Open(cfg Config) (*Engine, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("bfcbo: Config.ScaleFactor must be positive")
	}
	if cfg.DOP <= 0 {
		cfg.DOP = 8
	}
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	broker := mem.NewBroker(cfg.MemBudget)
	sch := sched.New(sched.Config{
		Slots:         cfg.DOP,
		MaxConcurrent: cfg.MaxConcurrent,
	})
	reg := obs.NewRegistry()
	var rec *obs.FlightRecorder
	if cfg.SlowQueryLog >= 0 {
		n := cfg.SlowQueryLog
		if n == 0 {
			n = 32
		}
		rec = obs.NewFlightRecorder(n)
	}
	var work *obs.WorkloadStore
	if cfg.WorkloadHistory >= 0 {
		work = obs.NewWorkloadStore(cfg.WorkloadHistory)
	}
	e := &Engine{
		cfg: cfg, ds: ds, broker: broker, sched: sch,
		reg: reg, metrics: obs.NewMetrics(reg), rec: rec,
		insp: obs.NewInspector(), work: work,
	}
	registerEngineMetrics(reg, sch, broker)
	return e, nil
}

// registerEngineMetrics exposes the scheduler's and memory broker's live
// state through gauge/counter funcs — read at scrape time, so the running
// engine pays nothing for them.
func registerEngineMetrics(reg *obs.Registry, sch *sched.Scheduler, broker *mem.Broker) {
	reg.NewGaugeFunc("bfcbo_sched_slots", "Worker-slot pool capacity (DOP).",
		func() float64 { return float64(sch.Capacity()) })
	reg.NewGaugeFunc("bfcbo_sched_slots_in_use", "Worker slots currently held.",
		func() float64 { return float64(sch.InUse()) })
	reg.NewGaugeFunc("bfcbo_sched_queries_admitted", "Queries currently admitted (running).",
		func() float64 { return float64(sch.Admitted()) })
	reg.NewGaugeFunc("bfcbo_sched_queries_queued", "Queries waiting in the admission queue.",
		func() float64 { return float64(sch.Queued()) })
	reg.NewGaugeFunc("bfcbo_sched_slot_waiters", "Workers currently blocked on a slot.",
		func() float64 { return float64(sch.SlotWaiters()) })
	reg.NewCounterFunc("bfcbo_sched_admitted_total", "Queries admitted since engine open.",
		func() int64 { return sch.Totals().Admitted })
	reg.NewCounterFunc("bfcbo_sched_finished_total", "Admitted queries finished since engine open.",
		func() int64 { return sch.Totals().Finished })
	reg.NewGaugeFunc("bfcbo_mem_budget_bytes", "Executor memory budget (0 = unlimited).",
		func() float64 { return float64(broker.Budget()) })
	reg.NewGaugeFunc("bfcbo_mem_used_bytes", "Bytes currently reserved from the broker.",
		func() float64 { return float64(broker.Used()) })
	reg.NewGaugeFunc("bfcbo_mem_peak_bytes", "Peak bytes reserved since engine open.",
		func() float64 { return float64(broker.Peak()) })
	reg.NewCounterFunc("bfcbo_mem_denials_total", "Reservation grows denied by the budget.",
		func() int64 { return broker.Denials() })
	reg.NewCounterFunc("bfcbo_mem_spill_triggers_total", "Denied grows that triggered an operator spill.",
		func() int64 { return broker.SpillTriggers() })
	reg.NewCounterFunc("bfcbo_faults_injected_total", "Faults fired by the process-wide injector (0 when disabled).",
		faults.TotalFired)
}

// MemoryBroker exposes the engine's process-wide memory broker (budget,
// current/peak usage, denial counts) for monitoring.
func (e *Engine) MemoryBroker() *mem.Broker { return e.broker }

// Scheduler exposes the engine's process-wide query scheduler (slot pool
// occupancy, admitted and queued query counts) for monitoring.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// MetricsRegistry exposes the engine's metric registry: per-query latency
// and wait histograms, engine-total counters, and live scheduler/broker
// gauges, all exportable as Prometheus text via its WriteProm.
func (e *Engine) MetricsRegistry() *obs.Registry { return e.reg }

// FlightRecorder exposes the engine's slow-query flight recorder, or nil
// when Config.SlowQueryLog is negative.
func (e *Engine) FlightRecorder() *obs.FlightRecorder { return e.rec }

// Inspector exposes the engine's in-flight query inspector: live
// per-pipeline progress, scheduler and memory-grant state of every
// running query (served at /debug/queries/live), plus Kill.
func (e *Engine) Inspector() *obs.Inspector { return e.insp }

// Workload exposes the engine's workload history store — per-fingerprint
// exec counts, latency quantiles, and observed-vs-estimated cardinality
// aggregates (served at /debug/workload) — or nil when
// Config.WorkloadHistory is negative.
func (e *Engine) Workload() *obs.WorkloadStore { return e.work }

// Kill requests cancellation of a running query by the ID shown in
// /debug/queries/live (and in Output.Trace.QueryID). The run's workers
// stop at their next morsel boundary and the corresponding
// Run/RunContext call returns an error wrapping obs.ErrKilled. Kill
// reports whether the ID named an in-flight query.
func (e *Engine) Kill(id int64) bool { return e.insp.Kill(id) }

// Dataset gives access to the underlying schema and storage for advanced
// use (building custom query blocks).
func (e *Engine) Dataset() *datagen.Dataset { return e.ds }

// ParseSQL parses a select-project-join statement against the TPC-H schema.
func (e *Engine) ParseSQL(sql string) (*query.Block, error) {
	return sqlparser.Parse(e.ds.Schema, sql)
}

// TPCH returns the built-in join block for a TPC-H query number (1–22).
func (e *Engine) TPCH(num int) (*query.Block, error) {
	q, ok := tpch.Get(num)
	if !ok {
		return nil, fmt.Errorf("bfcbo: no TPC-H query %d", num)
	}
	return q.Build(e.ds.Schema), nil
}

// Output is the result of planning and executing one query block.
type Output struct {
	// Rows is the number of result rows of the join block.
	Rows int
	// Blooms is the number of Bloom filters in the plan.
	Blooms int
	// PlanningTime and ExecTime are the measured phase latencies.
	PlanningTime time.Duration
	ExecTime     time.Duration
	// JoinOrder is a parenthesised signature of the join tree.
	JoinOrder string
	// BloomStats reports what each filter did at runtime.
	BloomStats []exec.BloomRuntime
	// OpStats are the raw per-operator runtime counters in pipeline
	// execution order.
	OpStats []exec.OpStat
	// Pipelines reports each executed pipeline of the morsel-driven
	// executor in pipeline-ID order, including the breaker finish wall and
	// its merge/sort/build/bloom phase split. Pipelines are DAG-scheduled:
	// entries with disjoint dependency chains ran concurrently, so their
	// walls can overlap.
	Pipelines []exec.PipelineStat
	// Work totals the rows built, probed, Bloom-tested and scanned: the
	// run in exact counts that repeat at a given DOP, next to its times.
	Work exec.Work
	// Spill totals the run's spill activity under Config.MemBudget (all
	// zero for unlimited-budget runs).
	Spill exec.SpillStat
	// Sched reports the query's trip through the process-wide scheduler:
	// admission queue wait and worker-slot wait and occupancy.
	Sched SchedStat
	// Trace is the query's lifecycle trace — admission queue, per-pipeline
	// spans, breaker finish phases — exportable as Chrome trace-event JSON
	// via its WriteChrome (load in chrome://tracing or Perfetto).
	Trace *obs.Trace

	ex explained // behind Explain and ExplainAnalyze
}

// Plan optimizes a block without executing it, under the cost profile of
// this executor (optimizer.DefaultOptions; the paper's profile is
// optimizer.PaperOptions, for reproducing its figures).
func (e *Engine) Plan(b *query.Block, mode Mode) (*optimizer.Result, error) {
	opts := optimizer.DefaultOptions(e.cfg.ScaleFactor)
	opts.Mode = mode
	res, err := optimizer.Optimize(b, opts)
	if err == nil {
		e.metrics.PlanTime.ObserveDuration(res.PlanningTime)
	}
	return res, err
}

// Run optimizes and executes a block under the given mode.
func (e *Engine) Run(b *query.Block, mode Mode) (*Output, error) {
	return e.RunContext(context.Background(), b, mode)
}

// RunContext is Run with admission control and cancellation: the query is
// admitted through the engine's process-wide scheduler — queueing behind
// Config.MaxConcurrent — and ctx cancellation or deadline expiry (queued
// or mid-run) stops every pipeline at the next morsel and surfaces
// ctx.Err(); ctx is the one bound on a queued wait. Memory never holds a
// query back: any number of RunContext calls may execute concurrently on
// one Engine; they share the DOP-sized worker-slot pool and the memory
// budget (a hash build denied a grant spills), and each gets its own
// spill subdirectory.
func (e *Engine) RunContext(ctx context.Context, b *query.Block, mode Mode) (*Output, error) {
	res, err := e.Plan(b, mode)
	if err != nil {
		return nil, err
	}
	// The fingerprint is the query's normalized shape identity — block +
	// plan shape + mode, parameterized on literals — computed once per run
	// here and carried through the inspector, the flight recorder, the
	// workload history, and the workers' pprof labels.
	fp := plan.Fingerprint(b, res.Plan)
	start := time.Now()
	tr := obs.NewTrace(8)
	r, err := exec.RunContext(ctx, e.ds.DB, b, res.Plan, exec.Options{
		DOP: e.cfg.DOP, Broker: e.broker, SpillDir: e.cfg.SpillDir,
		Sched:   e.sched,
		Metrics: e.metrics, Trace: tr,
		Inspector: e.insp, Fingerprint: fp,
	})
	// One record a run, failed or not, feeds both the flight recorder and
	// the run's shape in the workload history.
	rec := obs.QueryRecord{
		ID: tr.QueryID, Label: b.Name, Mode: mode.String(), CostProfile: res.Plan.CostProfile,
		Fingerprint: plan.FingerprintHex(fp),
		Start:       start, Latency: time.Since(start), Trace: tr,
	}
	if err != nil {
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			e.metrics.PanicsRecovered.Inc()
		}
		rec.Err = err.Error()
		e.rec.Record(rec)
		e.work.Observe(&rec)
		return nil, err
	}
	r.Out = nil // the caller gets Rows; the recorder keeps no row set
	ex := explained{r: r, p: res.Plan}
	sp := r.TotalSpill()
	rec.Rows, rec.Explain = r.Rows, ex
	rec.QueueWait, rec.SlotWait, rec.SlotBusy = r.Sched.QueueWait, r.Sched.SlotWait, r.Sched.SlotBusy
	rec.MemPeak = r.MemPeak
	rec.SpillBytes, rec.SpillRead = sp.Bytes, sp.BytesRead
	rec.SpillParts, rec.SpillDepth = int64(sp.Partitions), int64(sp.Depth)
	// Observed-vs-estimated operator cardinalities, for the workload
	// history's feedback signal.
	rec.Ops = int64(len(r.Actuals))
	for _, a := range r.Actuals {
		rec.OpsActualRows += a.Actual
		rec.OpsEstRows += a.Node.EstRows()
	}
	e.rec.Record(rec)
	e.work.Observe(&rec)
	return &Output{
		Rows:         r.Rows,
		Blooms:       res.Plan.CountBlooms(),
		PlanningTime: res.PlanningTime,
		// ExecTime reports execution, not admission: time queued behind
		// other queries is broken out in Sched.QueueWait.
		ExecTime:   max(rec.Latency-r.Sched.QueueWait, 0),
		JoinOrder:  res.Plan.JoinOrderSignature(),
		BloomStats: r.BloomStats,
		OpStats:    r.OpStats,
		Pipelines:  r.Pipelines,
		Work:       r.Work,
		Spill:      sp,
		Sched:      r.Sched,
		Trace:      tr,
		ex:         ex,
	}, nil
}

// explained renders a finished run's EXPLAIN ANALYZE only when it is read
// (String, or MarshalText in /debug/queries), so a run nobody inspects
// renders nothing.
type explained struct {
	r *exec.Result // Out is nil: no row set is retained
	p *plan.Plan
}

func (x explained) String() string { return x.r.ExplainAnalyze(x.p) }

func (x explained) MarshalText() ([]byte, error) { return []byte(x.String()), nil }

// Explain renders the physical plan followed by ExplainAnalyze.
func (o *Output) Explain() string { return o.ex.p.Explain() + o.ExplainAnalyze() }

// ExplainAnalyze renders the plan annotated with observed per-operator
// rows, batch counts and wall times (EXPLAIN ANALYZE style).
func (o *Output) ExplainAnalyze() string { return o.ex.String() }

// RunSQL is the one-call convenience: parse, plan, execute.
func (e *Engine) RunSQL(sql string, mode Mode) (*Output, error) {
	return e.RunSQLContext(context.Background(), sql, mode)
}

// RunSQLContext is RunSQL with the RunContext admission and cancellation
// semantics.
func (e *Engine) RunSQLContext(ctx context.Context, sql string, mode Mode) (*Output, error) {
	b, err := e.ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, b, mode)
}
