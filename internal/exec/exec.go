package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/spill"
	"bfcbo/internal/storage"
)

// Result is the outcome of executing a plan.
type Result struct {
	// Rows is the number of rows the run returned. A run counts them and
	// keeps none: callers read the count and the statistics below.
	Rows int
	// BloomStats describes every Bloom filter that ran.
	BloomStats []BloomRuntime
	// OpStats records one entry per plan node, in pipeline execution order
	// (a reference run: in evaluation order), with the node's observed
	// rows in and out for estimate-vs-actual analysis (the paper's MAE
	// metric). A reference run records only Label, Node, RowsIn and
	// RowsOut.
	OpStats []OpStat
	// Scans reports per-scan vectorized-execution counters — morsels
	// claimed, per-predicate selectivity — ordered by relation index
	// (empty for reference runs).
	Scans []ScanRuntime
	// Pipelines reports each executed pipeline (empty for reference runs).
	Pipelines []PipelineStat
	// Work totals the rows the run pushed through each kind of operator
	// the cost model prices.
	Work Work
	// MemPeak is the high-water mark of the bytes this run held on its
	// memory broker (zero for reference runs, which account nothing).
	MemPeak int64
	// Sched is the run's scheduling report: admission queue wait and
	// worker slot occupancy and waits (zero for reference runs, which are
	// never admitted).
	Sched sched.Stat
}

// Work is what a run did, in rows: exact counts that repeat bit for bit at
// every DOP, whatever the schedule or the host — the deterministic
// counterpart of the run's wall time, and what a cost profile is checked
// against. With Bloom filters, Build, Probe and Tested follow the filters'
// false positives, and a filter's bits do not depend on DOP.
type Work struct {
	// Build is the rows inserted into hash-join build sides, in memory or
	// through grace partitions.
	Build int64
	// Probe is the keys looked up: rows entering hash-join probes.
	Probe int64
	// Tested is the Bloom filter tests run inside scans.
	Tested int64
	// Scanned is the base-table rows scans read: every row of every
	// morsel claimed.
	Scanned int64
}

// Add returns the sum of two work vectors.
func (w Work) Add(o Work) Work {
	return Work{w.Build + o.Build, w.Probe + o.Probe, w.Tested + o.Tested, w.Scanned + o.Scanned}
}

// foldWork totals the per-node counters r already holds.
func foldWork(r *Result) Work {
	var w Work
	for _, st := range r.OpStats {
		switch n := st.Node.(type) {
		case *plan.Scan:
			w.Scanned += st.RowsIn
		case *plan.Join:
			w.Probe += st.RowsIn
			w.Build += int64(r.ActualFor(n.Inner))
		}
	}
	for _, b := range r.BloomStats {
		w.Tested += b.Tested
	}
	return w
}

// StatFor returns the runtime counters recorded for a plan node, or nil.
func (r *Result) StatFor(n plan.Node) *OpStat {
	for i := range r.OpStats {
		if r.OpStats[i].Node == n {
			return &r.OpStats[i]
		}
	}
	return nil
}

// TotalSpill sums the spill activity across the run's pipelines (zero for
// unlimited-budget and reference runs).
func (r *Result) TotalSpill() SpillStat {
	var s SpillStat
	for _, p := range r.Pipelines {
		s = s.add(p.Spill)
	}
	return s
}

// ActualFor returns the observed cardinality for a node (or -1).
func (r *Result) ActualFor(n plan.Node) float64 {
	if st := r.StatFor(n); st != nil {
		return float64(st.RowsOut)
	}
	return -1
}

// ScanRuntime reports one scan source's vectorized-execution counters.
type ScanRuntime struct {
	Rel   int
	Alias string
	// Morsels is the number of morsels claimed; a scan reads every row
	// of each one.
	Morsels int64
	// ZoneSkipped is always 0; it stays only because benchmark/ still
	// reports it.
	ZoneSkipped int64
	// Preds is the per-kernel row flow in evaluation order: In rows
	// entered the kernel, Out survived. Both are exact counts, the same at
	// every DOP.
	Preds []query.PredCount
}

type executor struct {
	dop    int // effectiveDOP(Options.DOP): at least 1
	morsel int

	tables []*storage.Table // by relation index
	blooms *bloomSet

	// Pipelined-execution state: hash builds keyed by their join (a table in
	// memory, or the grace partitions it spilled to), the per-operator stat
	// registry, and the final output. pipes and scanRt are indexed by
	// pipeline ID: each pipeline fills its own slots as it finishes, and
	// scanRt is sorted by relation at the end.
	builds map[*plan.Join]*hashTable
	graces map[*plan.Join]*graceHashJoin
	stats  []*opStats
	pipes  []PipelineStat
	scanRt []ScanRuntime
	out    int // the rows the result sink counted

	// Memory-budget state: the per-query account on the memory broker, the
	// configured budget (for partition sizing), and the run's lazily
	// created spill directory, removed unconditionally when Run returns.
	memq        *mem.Query
	budget      int64
	spillParent string
	spillMu     sync.Mutex
	spillDir    *spill.Dir

	// DAG-scheduling state. Pipelines run concurrently once their
	// dependencies complete, so the breaker-output maps above are written
	// by concurrent finishes — smu guards them and the first error (the
	// Bloom filters sit behind bloomSet's own lock). stop is the
	// run-wide cancellation flag set by the first worker error (or context
	// cancellation) and checked by every morsel source; stopCh closes at
	// the same moment, waking workers blocked on slot acquisition.
	// children[i] are the pipelines that depend on P<i>, pending[i] counts
	// P<i>'s dependencies not yet finished, and wg the stage workers
	// launched and not yet returned.
	smu       sync.Mutex
	firstErr  error
	stop      atomic.Bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	children  [][]*plan.Pipeline
	pending   []atomic.Int32
	wg        sync.WaitGroup
	pipeStats map[int][]*opStats
	injectOp  func(pl *plan.Pipeline, worker int, last bool, op PhysicalOperator) PhysicalOperator

	// Inter-query scheduling state: ticket is this run's admission into
	// the process-wide scheduler and the handle its workers lease slots
	// from — the global worker budget is the scheduler's slot capacity,
	// shared by every concurrently admitted query, so total running
	// workers stay at DOP across queries, not per query. queryTag scopes
	// the run's spill subdirectory to its scheduler query ID.
	ticket   *sched.Query
	queryTag string

	// trace, when non-nil, receives pipeline/breaker spans (Options.Trace).
	trace *obs.Trace

	// live, when non-nil, is this run's entry in the in-flight query
	// inspector: per-pipeline progress cells that read the operators'
	// counters, plus the kill hook routing Inspector.Kill into
	// fail(). pctx and fpHex feed the workers' pprof labels
	// (query/fingerprint/pipeline) so CPU profiles attribute samples to
	// queries.
	live  *obs.LiveQuery
	pctx  context.Context
	fpHex string
}

// Options configure execution.
type Options struct {
	// DOP is the degree of parallelism: the workers each pipeline runs, and
	// the slot pool's size when Sched is nil. 0 means GOMAXPROCS capped
	// at 8.
	DOP int
	// Legacy runs the reference interpreter (reference.go) instead of the
	// engine: a serial pure function of the plan that ignores every other
	// option, DOP included. It is the one implementation the equivalence
	// tests and the benchmark's answer check diff the engine against.
	Legacy bool
	// SpillDir is the parent directory for the run's spill files
	// ("" = os.TempDir()). Each run creates — and always removes — its own
	// subdirectory, even on error or cancellation.
	SpillDir string
	// Broker, when non-nil, is the memory broker the run's per-query
	// reservation draws from; its budget bounds the bytes of operator state
	// held in RAM, shared with every other query on the same broker. A hash
	// build whose grant is denied spills: the join runs as a grace hash join
	// over partition files. Mandatory allocations (a mirrored join's
	// marks, a grace pair's table) are accounted but never denied; the
	// result rows are counted, not kept. Nil means unlimited.
	Broker *mem.Broker
	// Sched, when non-nil, is the process-wide query scheduler the run is
	// admitted through: admission control (max concurrent queries) plus
	// the shared worker-slot pool all admitted queries lease from. When
	// nil, the run gets a private scheduler with DOP slots — the
	// single-query behaviour of earlier versions.
	Sched *sched.Scheduler
	// Metrics, when non-nil, receives the run's folded totals — latency,
	// scheduler stats, scan/probe counters, spill bytes — in one cold
	// pass when the run ends. Nothing on the per-row or per-batch hot path
	// touches it (the per-worker local fold pattern).
	Metrics *obs.Metrics
	// Trace, when non-nil, collects the query's lifecycle spans (queue,
	// pipelines, breaker finish phases) for Chrome trace-event export.
	// Spans are recorded at pipeline granularity — a handful per query.
	Trace *obs.Trace
	// Inspector, when non-nil, registers the run with the in-flight query
	// inspector for the duration of execution: live per-pipeline progress
	// (morsels, rows scanned/emitted, completion fraction), scheduler and
	// memory-grant state, and a kill hook routed into the run-wide stop
	// flag. A snapshot reads the operators' own counters; the workers do
	// nothing for it.
	Inspector *obs.Inspector
	// Fingerprint, when non-zero, is the query's normalized shape identity
	// (plan.Fingerprint), shown by the inspector and stamped on the
	// workers' pprof labels.
	Fingerprint uint64

	// injectOp, when set (tests only), wraps each worker's operator chain
	// of every stage of every pipeline — the failure-injection hook for
	// cancellation and error-propagation tests. last is true for the chain
	// of the pipeline's last stage, the one that feeds its breaker; a
	// spilled join's route stage is not last.
	injectOp func(pl *plan.Pipeline, worker int, last bool, op PhysicalOperator) PhysicalOperator
	// morselSize, when positive (tests only), overrides DefaultMorselSize:
	// tiny morsels force many batches through short inputs.
	morselSize int
}

// Run executes a physical plan over the database and returns its row count
// with per-node actuals and Bloom filter statistics.
func Run(db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (*Result, error) {
	return RunContext(context.Background(), db, block, p, opts)
}

// RunContext is Run with admission control and cancellation: the query is
// admitted through Options.Sched (queueing under the scheduler's
// concurrency cap) before executing, and ctx cancellation
// or deadline expiry — while queued or mid-run — trips the run-wide stop
// flag, winds every pipeline down at the next morsel, and surfaces
// ctx.Err().
func RunContext(ctx context.Context, db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (res *Result, err error) {
	if opts.Legacy {
		res, _, err = runReference(ctx, db, block, p)
		return res, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dop := effectiveDOP(opts.DOP)
	morsel := opts.morselSize
	if morsel <= 0 {
		morsel = DefaultMorselSize
	}
	broker := opts.Broker
	if broker == nil {
		broker = mem.NewBroker(0)
	}
	scheduler := opts.Sched
	if scheduler == nil {
		scheduler = sched.New(sched.Config{Slots: dop})
	}
	// Decomposition happens before admission on purpose: it is cheap, needs
	// no execution resources, and refuses a plan the executor cannot run
	// before it holds anything.
	pipes, err := plan.Decompose(p)
	if err != nil {
		return nil, err
	}
	admitStart := time.Now()
	ticket, err := scheduler.Admit(ctx)
	if err != nil {
		// A query turned away at admission (refused, cancel, deadline)
		// still counts: its whole life was queue wait, under the ID it
		// was given on entry.
		var ae *sched.AdmitError
		if opts.Trace != nil && errors.As(err, &ae) {
			opts.Trace.QueryID = ae.ID
		}
		if opts.Metrics != nil {
			wait := time.Since(admitStart)
			opts.Metrics.ObserveQuery(wait, wait, 0, 0, 0, true)
		}
		return nil, err
	}
	defer ticket.Finish()
	if opts.Trace != nil {
		opts.Trace.QueryID = ticket.ID()
		if opts.Trace.Label == "" {
			opts.Trace.Label = block.Name
		}
		if qw := ticket.Stats().QueueWait; qw > 0 {
			opts.Trace.Add("queue", "sched", 0, admitStart, qw)
		}
	}
	// Fold the run's observability totals exactly once, on every exit path
	// after admission — success, executor error, or cancellation. One cold
	// pass per query; registered before ticket.Finish()'s LIFO turn so the
	// occupancy integral is still live when read.
	runStart := time.Now()
	if opts.Metrics != nil || opts.Trace != nil {
		defer func() {
			if opts.Trace != nil {
				opts.Trace.Add("query", "query", 0, runStart, time.Since(runStart))
			}
			if opts.Metrics != nil {
				st := ticket.Stats()
				rows := 0
				if res != nil {
					rows = res.Rows
				}
				opts.Metrics.ObserveQuery(time.Since(admitStart), st.QueueWait,
					st.SlotWait, st.SlotBusy, rows, err != nil)
				if res != nil {
					foldResultMetrics(opts.Metrics, res)
				}
			}
		}()
	}
	ex := &executor{
		dop: dop, morsel: morsel,
		builds:      make(map[*plan.Join]*hashTable),
		graces:      make(map[*plan.Join]*graceHashJoin),
		injectOp:    opts.injectOp,
		pipeStats:   newPipeStats(pipes),
		pipes:       make([]PipelineStat, len(pipes)),
		scanRt:      make([]ScanRuntime, len(pipes)),
		memq:        broker.NewQuery(),
		budget:      broker.Budget(),
		spillParent: opts.SpillDir,
		stopCh:      make(chan struct{}),
		ticket:      ticket,
		queryTag:    fmt.Sprintf("q%d", ticket.ID()),
		trace:       opts.Trace,
		pctx:        ctx,
	}
	if opts.Fingerprint != 0 {
		ex.fpHex = plan.FingerprintHex(opts.Fingerprint)
	}
	// Top-level panic containment: anything that panics on this goroutine
	// — a rowset wiring guard, say — becomes this query's typed
	// *PanicError instead of a process abort. No worker runs then: runDAG
	// sets up every root before it launches one, and the workers carry a
	// shim of their own (launch). Registered before the resource defers
	// below, so in unwind order the spill dir, memory account, and ticket
	// are all released first, then the panic converts, then the metrics
	// defer observes the error like any other failure.
	defer func() {
		if v := recover(); v != nil {
			err = ex.panicErr(v, "query execution")
			res = nil
		}
	}()
	// The query account and any spill files are torn down no matter how the
	// run ends — success, error, or cancellation — so a budgeted run can
	// never leak reserved bytes or temp files.
	defer ex.memq.Close()
	defer ex.cleanupSpill()
	// Context cancellation and deadlines feed the run-wide stop flag until
	// the run returns.
	defer context.AfterFunc(ctx, func() { ex.fail(ctx.Err()) })()
	if ex.tables, err = resolveTables(db, block); err != nil {
		return nil, err
	}
	ex.blooms = newBloomSet(ex.tables, p.Blooms)
	// Publish the run to the in-flight inspector. Planned morsel counts
	// fix each pipeline's progress denominator up front, exactly: the
	// shared cursor claims every morsel of its scan. A snapshot reads the
	// scan's own counters, which each batch folds once: the morsels it
	// claimed and every row of them scanned, however many morsels it
	// spans, so progress moves a batch at a time and ends at the planned
	// count. It reads the last operator's output rows too. Deregistration
	// is deferred, covering every exit path.
	if opts.Inspector != nil {
		lq := obs.NewLiveQuery(ticket.ID(), block.Name, ex.fpHex, p.Mode)
		for _, pl := range pipes {
			st := ex.pipeStats[pl.ID]
			scan, last := st[0], st[len(st)-1]
			srcRows := int64(ex.tables[pl.Source.Rel].NumRows())
			planned := (srcRows + int64(morsel) - 1) / int64(morsel)
			lq.AddPipeline(pl.ID, pl.Describe(), planned, func() obs.PipeCounts {
				return obs.PipeCounts{Morsels: scan.batches.Load(),
					RowsScanned: scan.rowsIn.Load(), RowsEmitted: last.rowsOut.Load()}
			})
		}
		lq.OnKill(func() { ex.fail(fmt.Errorf("exec: %w", obs.ErrKilled)) })
		lq.SetSchedFn(func() obs.LiveSched {
			st := ticket.Stats()
			return obs.LiveSched{Held: ticket.Held(), QueueWait: st.QueueWait,
				SlotWait: st.SlotWait, SlotBusy: st.SlotBusy}
		})
		lq.SetMemFn(ex.memq.Used)
		ex.live = lq
		opts.Inspector.Register(lq)
		defer opts.Inspector.Deregister(lq.ID)
	}
	if err := ex.runPipelined(pipes); err != nil {
		return nil, err
	}
	// One scan per pipeline, reported by relation.
	sort.Slice(ex.scanRt, func(i, j int) bool { return ex.scanRt[i].Rel < ex.scanRt[j].Rel })
	res = &Result{
		Rows:       ex.out,
		Pipelines:  ex.pipes,
		Scans:      ex.scanRt,
		MemPeak:    ex.memq.Peak(),
		Sched:      ticket.Stats(),
		BloomStats: ex.blooms.stats(p.Blooms),
	}
	// Every plan node holds exactly one pipeline position (scans as
	// sources, joins as probes), so each has one stat.
	for _, st := range ex.stats {
		res.OpStats = append(res.OpStats, st.snapshot())
	}
	res.Work = foldWork(res)
	return res, nil
}

// effectiveDOP resolves Options.DOP: 0 means GOMAXPROCS capped at 8.
func effectiveDOP(dop int) int {
	if dop <= 0 {
		dop = min(runtime.GOMAXPROCS(0), 8)
	}
	return dop
}

// resolveTables maps the block's relations to their stored tables, by
// relation index.
func resolveTables(db *storage.Database, block *query.Block) ([]*storage.Table, error) {
	tables := make([]*storage.Table, len(block.Relations))
	for i, r := range block.Relations {
		t, err := db.Table(r.Table.Name)
		if err != nil {
			return nil, fmt.Errorf("exec: relation %s: %w", r.Alias, err)
		}
		tables[i] = t
	}
	return tables, nil
}

// foldResultMetrics lands one finished run's stat-struct totals in the
// metrics registry. This is the whole per-query cost of the metrics layer:
// the stats themselves were already folded from per-worker locals at
// operator Close, so this single pass touches a few dozen counters.
func foldResultMetrics(m *obs.Metrics, r *Result) {
	for _, sc := range r.Scans {
		m.MorselsScanned.Add(sc.Morsels)
	}
	for _, st := range r.OpStats {
		if _, ok := st.Node.(*plan.Join); ok {
			m.ProbeRows.Add(st.RowsIn)
		}
	}
	sp := r.TotalSpill()
	m.SpillBytes.Add(sp.Bytes)
	m.SpillReadBytes.Add(sp.BytesRead)
	m.SpillParts.Add(int64(sp.Partitions))
}
