package exec

import (
	"context"
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

// NodeActual pairs a plan node with its observed output cardinality.
type NodeActual struct {
	Node   plan.Node
	Actual float64
}

// Result is the outcome of executing a plan.
type Result struct {
	// Out is the materialized final row set, non-nil on every successful
	// run.
	Out *RowSet
	// Rows is the final output row count (Out.Len()).
	Rows int
	// Actuals records observed output rows per plan node, in execution
	// order, for estimate-vs-actual analysis (the paper's MAE metric).
	Actuals []NodeActual
	// BloomStats describes every Bloom filter that ran.
	BloomStats []BloomRuntime
	// OpStats reports per-operator runtime counters in pipeline execution
	// order (empty for reference runs).
	OpStats []OpStat
	// Scans reports per-scan vectorized-execution counters — morsels
	// claimed, per-predicate selectivity — ordered by relation index
	// (empty for reference runs).
	Scans []ScanRuntime
	// Pipelines reports each executed pipeline (empty for reference runs).
	Pipelines []PipelineStat
	// Work totals the rows the run pushed through each kind of operator
	// the cost model prices (zero for reference runs).
	Work Work
	// MemPeak is the high-water mark of the bytes this run held on its
	// memory broker (zero for reference runs, which account nothing).
	MemPeak int64
	// Sched is the run's scheduling report: admission queue wait, worker
	// slot occupancy and waits, and preempted-slot handoffs under
	// concurrent queries (zero for reference runs, which are never
	// admitted).
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

// StatFor returns the runtime counters recorded for a plan node, or nil
// (reference runs record no operator stats).
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
	for _, a := range r.Actuals {
		if a.Node == n {
			return a.Actual
		}
	}
	return -1
}

// PredRuntime is one scan predicate's observed row flow: In rows entered
// the kernel, Out survived. In/Out ratios are the measured selectivities
// the adaptive kernel chains reorder by.
type PredRuntime struct {
	Pred    string
	In, Out int64
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
	// Preds is the per-kernel row flow in compile order.
	Preds []PredRuntime
}

type executor struct {
	dop    int // effectiveDOP(Options.DOP): at least 1
	morsel int

	tables []*storage.Table // by relation index
	blooms *bloomSet

	// Pipelined-execution state: hash builds keyed by their join (a table in
	// memory, or the grace partitions it spilled to), the per-operator stat
	// registry, and the final output.
	builds map[*plan.Join]*hashTable
	graces map[*plan.Join]*graceHashJoin
	stats  []*opStats
	pipes  []PipelineStat
	out    *RowSet
	// scanRt collects per-scan runtime counters; appended under smu as
	// scan pipelines finish (concurrently), sorted by relation at the end.
	scanRt []ScanRuntime

	// Memory-budget state: the per-query account on the memory broker, the
	// configured budget (for partition sizing), and the run's lazily
	// created spill directory, removed unconditionally when Run returns.
	memq        *mem.Query
	budget      int64
	spillParent string
	spillMu     sync.Mutex
	spillDir    *spill.Dir

	mu      sync.Mutex
	actuals []NodeActual

	// DAG-scheduling state. Pipelines run concurrently once their
	// dependencies complete, so the breaker-output maps above and the stat
	// registries are written by concurrent finishes — smu guards them all
	// (the Bloom filters sit behind bloomSet's own lock). stop is the
	// run-wide cancellation flag set by the first worker error (or context
	// cancellation) and checked by every morsel source; stopCh closes at
	// the same moment, waking workers blocked on slot acquisition or the
	// grace-join writer barrier.
	smu       sync.Mutex
	firstErr  error
	stop      atomic.Bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	pipeStats map[int][]*opStats
	injectOp  func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator

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
	// inspector: per-pipeline progress cells the workers fold into at
	// morsel boundaries, plus the kill hook routing Inspector.Kill into
	// fail(). pctx and fpHex feed the workers' pprof labels
	// (query/fingerprint/pipeline) so CPU profiles attribute samples to
	// queries.
	live  *obs.LiveQuery
	pctx  context.Context
	fpHex string
}

// Options configure execution.
type Options struct {
	// DOP is the degree of parallelism (goroutines per exchange); 0 means
	// GOMAXPROCS capped at 8.
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
	// over partition files. The final result (and other mandatory
	// allocations) are accounted but never denied. Nil means unlimited.
	Broker *mem.Broker
	// Sched, when non-nil, is the process-wide query scheduler the run is
	// admitted through: admission control (max concurrent queries, queue
	// timeout) plus the shared worker-slot pool all admitted queries lease
	// from. When nil, the run gets a private scheduler with DOP slots —
	// the single-query behaviour of earlier versions.
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
	// flag. Progress folds happen at morsel boundaries only — no per-row
	// atomics, no allocation.
	Inspector *obs.Inspector
	// Fingerprint, when non-zero, is the query's normalized shape identity
	// (plan.Fingerprint), shown by the inspector and stamped on the
	// workers' pprof labels.
	Fingerprint uint64

	// injectOp, when set (tests only), wraps each worker's operator chain
	// of every pipeline — the failure-injection hook for cancellation and
	// error-propagation tests.
	injectOp func(pl *plan.Pipeline, worker int, op PhysicalOperator) PhysicalOperator
	// morselSize, when positive (tests only), overrides DefaultMorselSize:
	// tiny morsels force many batches through short inputs.
	morselSize int
}

// minSpillableGrant is the per-spillable-breaker memory floor used to
// register a query's minimum grant with the scheduler: roughly the
// partition-routing working set a grace join needs to make progress
// instead of thrashing.
const minSpillableGrant = 256 << 10

// Run executes a physical plan over the database and returns the final row
// set with per-node actuals and Bloom filter statistics.
func Run(db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (*Result, error) {
	return RunContext(context.Background(), db, block, p, opts)
}

// RunContext is Run with admission control and cancellation: the query is
// admitted through Options.Sched (queueing under the scheduler's
// concurrency and memory policies) before executing, and ctx cancellation
// or deadline expiry — while queued or mid-run — trips the run-wide stop
// flag, winds every pipeline down at the next morsel, and surfaces
// ctx.Err().
func RunContext(ctx context.Context, db *storage.Database, block *query.Block, p *plan.Plan, opts Options) (res *Result, err error) {
	if opts.Legacy {
		return runReference(ctx, db, block, p)
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
		scheduler = sched.New(sched.Config{Slots: dop, Broker: broker})
	}
	// Register the pipeline DAG with the scheduler and wait for admission.
	// Decomposition happens before admission on purpose: it is cheap, needs
	// no execution resources, refuses a plan the executor cannot run before
	// it holds anything, and its summary (spillable breakers) sizes the
	// minimum memory grant the admission gate checks.
	pipes, err := plan.Decompose(p)
	if err != nil {
		return nil, err
	}
	admitStart := time.Now()
	ticket, err := scheduler.Admit(ctx, sched.QueryDesc{
		MinMemory: sched.MinMemoryFor(broker, plan.SummarizeDAG(pipes).SpillableSinks, minSpillableGrant),
	})
	if err != nil {
		// A query turned away at admission (timeout, shed, cancel)
		// still counts: its whole life was queue wait.
		if opts.Metrics != nil {
			wait := time.Since(admitStart)
			opts.Metrics.ObserveQuery(wait, wait, 0, 0, 0, 0, true)
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
					st.SlotWait, st.SlotBusy, st.Handoffs, rows, err != nil)
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
		pipeStats:   make(map[int][]*opStats),
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
	// *PanicError instead of a process abort; pipelines and their workers
	// carry shims of their own (runDAG, runPipeline). Registered before the
	// resource defers below, so in unwind order the spill dir, memory
	// account, and ticket are all released first, then the panic converts,
	// then the metrics defer observes the error like any other failure.
	defer func() {
		if v := recover(); v != nil {
			err = ex.panicErr(v, "query execution")
			ex.fail(err) // stop any straggling helper between batches
			res = nil
		}
	}()
	// The query account and any spill files are torn down no matter how the
	// run ends — success, error, or cancellation — so a budgeted run can
	// never leak reserved bytes or temp files.
	defer ex.memq.Close()
	defer ex.cleanupSpill()
	// Context cancellation and deadlines feed the run-wide stop flag; the
	// watcher is released when the run returns.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				ex.fail(ctx.Err())
			case <-watchDone:
			}
		}()
		defer close(watchDone)
	}
	if ex.tables, err = resolveTables(db, block); err != nil {
		return nil, err
	}
	ex.blooms = newBloomSet(ex.tables, p.Blooms)
	// Publish the run to the in-flight inspector. Planned morsel counts
	// fix each pipeline's progress denominator up front, exactly: the
	// shared cursor claims every morsel of its scan. Deregistration is
	// deferred, covering every exit path.
	if opts.Inspector != nil {
		lq := obs.NewLiveQuery(ticket.ID(), block.Name, ex.fpHex, p.Mode)
		for _, pl := range pipes {
			srcRows := int64(ex.tables[pl.Source.Rel].NumRows())
			planned := (srcRows + int64(morsel) - 1) / int64(morsel)
			lq.AddPipeline(pl.ID, pl.Describe(), planned, int64(morsel), srcRows)
		}
		lq.OnKill(func() { ex.fail(fmt.Errorf("exec: %w", obs.ErrKilled)) })
		lq.SetSchedFn(func() obs.LiveSched {
			st := ticket.Stats()
			return obs.LiveSched{Held: ticket.Held(), QueueWait: st.QueueWait,
				SlotWait: st.SlotWait, SlotBusy: st.SlotBusy, Handoffs: st.Handoffs}
		})
		lq.SetMemFn(ex.memq.Used)
		ex.live = lq
		opts.Inspector.Register(lq)
		defer opts.Inspector.Deregister(lq.ID)
	}
	if err := ex.runPipelined(pipes); err != nil {
		return nil, err
	}
	// Scan pipelines finish in DAG order, not relation order; sort the
	// collected runtimes so reports are deterministic.
	sort.Slice(ex.scanRt, func(i, j int) bool { return ex.scanRt[i].Rel < ex.scanRt[j].Rel })
	res = &Result{
		Out: ex.out, Rows: ex.out.Len(), Actuals: ex.actuals,
		Pipelines:  ex.pipes,
		Scans:      ex.scanRt,
		MemPeak:    ex.memq.Peak(),
		Sched:      ticket.Stats(),
		BloomStats: ex.blooms.stats(p.Blooms),
	}
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

func (ex *executor) record(n plan.Node, rows int) {
	ex.mu.Lock()
	ex.actuals = append(ex.actuals, NodeActual{Node: n, Actual: float64(rows)})
	ex.mu.Unlock()
}

// yieldSlot releases the caller's global worker slot; acquireSlot takes
// one back (false when the run was canceled while waiting — the caller
// then holds no slot). Operators that block on other workers of their
// pipeline (the grace join's writer barrier) bracket the wait with these
// so blocked workers never starve the workers they wait for out of the
// pool — which, under the process-wide scheduler, they now share with
// every other admitted query. maybeYield is the morsel-boundary
// preemption point: under cross-query contention a worker over its
// query's fair share hands its slot off and re-acquires.
func (ex *executor) yieldSlot()        { ex.ticket.Release() }
func (ex *executor) acquireSlot() bool { return ex.ticket.Acquire(ex.stopCh) }
func (ex *executor) maybeYield() bool  { return ex.ticket.MaybeYield(ex.stopCh) }

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
