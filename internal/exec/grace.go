package exec

import (
	"fmt"
	"time"

	"sync/atomic"

	"bfcbo/internal/mem"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// This file is the grace hash join: when a hash-build sink's memory grant
// is denied, both join sides hash-partition to spill files and the join
// runs partition pair by partition pair. The build sink routes build rows
// to nparts partition files (level-0 hash); the probe pipeline's workers
// route their input batches to matching probe partition files instead of
// probing; once every worker has finished writing, workers claim
// partitions from a shared cursor and join each pair — loading the build
// partition, building its table with buildHashTable on the claiming
// worker's own goroutine, and streaming the probe partition through the
// shared probeBatch kernel, so all join types (inner/semi/anti/left) and
// extra conditions work unchanged. A mirrored join marks and sweeps pair
// by pair: equal keys share a partition, so a pair's build rows owe nothing
// to any other pair's probe rows. A partition pair whose grant is denied
// again repartitions recursively with a level-salted hash, up to
// graceMaxDepth.

// graceHashJoin is the shared state of one spilled hash join, created by
// the build sink and completed by the probe pipeline.
type graceHashJoin struct {
	ex     *executor
	j      *plan.Join
	nparts int

	// Build side: partition files plus the key gather (base-table column
	// indexed by spilled row ids, so keys are re-derived, never stored).
	buildRels    query.RelSet
	buildKeyPos  int // column position of the key relation in the spill layout
	buildKeyVals []int64
	build        []*spill.Writer
	buildRec     *spillCounters

	// Probe side, initialized when the probe pipeline opens.
	probeRels    query.RelSet
	probeKeyRel  int
	probeKeyPos  int
	probeKeyVals []int64
	probe        []*spill.Writer
	probeRec     *spillCounters
	res          *mem.Reservation

	// Drain coordination: writersLeft counts probe workers still routing;
	// the channel closes when the last one finishes, and cursor hands out
	// partitions to drain.
	writersLeft atomic.Int32
	writersDone chan struct{}
	cursor      atomic.Int64
}

// newGraceBuild opens the build-side partition files for join j. estRows
// is the planner's build-input estimate, which sizes the partition count.
func (ex *executor) newGraceBuild(j *plan.Join, estRows float64, rec *spillCounters) (*graceHashJoin, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: hash join with no conditions")
	}
	c0 := j.Conds[0]
	col, err := ex.tables[c0.InnerRel].Column(c0.InnerCol)
	if err != nil {
		return nil, fmt.Errorf("exec: grace build key: %w", err)
	}
	buildRels := j.Inner.Rels()
	d, err := ex.spillFiles()
	if err != nil {
		return nil, err
	}
	g := &graceHashJoin{
		ex: ex, j: j,
		nparts:       spillPartitionCount(estRows, buildRels.Count(), ex.budget),
		buildRels:    buildRels,
		buildKeyPos:  buildRels.Rank(c0.InnerRel),
		buildKeyVals: col.Ints,
		buildRec:     rec,
	}
	if g.build, err = partitionWriters(d, "build", g.nparts, buildRels.Count()); err != nil {
		return nil, err
	}
	rec.addParts(int64(g.nparts))
	return g, nil
}

// routeBuild partitions one build-side row set into the build files.
// Safe for concurrent use (chunk appends are atomic per partition). The
// key gather runs in pooled scratch: routing happens on shared sink
// state across many workers and batches, so per-call allocation would
// dominate the spill path's steady state.
func (g *graceHashJoin) routeBuild(rs *RowSet) error {
	ids := rs.Col(g.j.Conds[0].InnerRel)
	kp := keyVecPool.Get().(*[]int64)
	keys := (*kp)[:0]
	for _, id := range ids {
		keys = append(keys, g.buildKeyVals[id])
	}
	n, err := routeCols(rs.cols, keys, 0, g.build)
	g.buildRec.addBytes(n)
	*kp = keys[:0]
	keyVecPool.Put(kp)
	return err
}

// finishBuild flushes the build partition files; called once by the build
// sink's finish after all routing is done.
func (g *graceHashJoin) finishBuild() error {
	for _, w := range g.build {
		if err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// initProbe attaches the probe side: partition files matching the build
// fan-out, the probe-key gather, and the writer barrier sized to the probe
// pipeline's worker count. Called once during probe-pipeline setup, before
// any worker starts.
func (g *graceHashJoin) initProbe(inRels query.RelSet, keyRel int, keyVals []int64,
	workers int, rec *spillCounters, res *mem.Reservation) error {
	d, err := g.ex.spillFiles()
	if err != nil {
		return err
	}
	g.probeRels = inRels
	g.probeKeyRel = keyRel
	g.probeKeyPos = inRels.Rank(keyRel)
	g.probeKeyVals = keyVals
	if g.probe, err = partitionWriters(d, "probe", g.nparts, inRels.Count()); err != nil {
		return err
	}
	g.probeRec = rec
	g.res = res
	g.writersLeft.Store(int32(workers))
	g.writersDone = make(chan struct{})
	rec.addParts(int64(g.nparts))
	return nil
}

// markDone retires one probe writer; the last one opens the drain.
func (g *graceHashJoin) markDone() {
	if g.writersLeft.Add(-1) == 0 {
		close(g.writersDone)
	}
}

// waitWriters blocks until every probe worker finished routing, or the
// run-wide stop channel cancels the wait. The caller must have yielded its
// global worker slot: a worker blocked here holds no slot, so concurrent
// grace pipelines — of this query or of any other admitted query sharing
// the pool — cannot deadlock the slot pool against each other.
func (g *graceHashJoin) waitWriters() bool {
	select {
	case <-g.writersDone:
		return true
	case <-g.ex.stopCh:
		return false
	}
}

// graceProbeBufRows bounds each worker's per-partition route buffer.
const graceProbeBufRows = 1024

// spillPair is one (build, probe) partition pair awaiting its join, with
// the hash level its files were routed at.
type spillPair struct {
	build, probe *spill.Writer
	level        int
}

// activePair is the pair a worker is currently streaming: the loaded
// build table plus an open probe reader. Join output is emitted one probe
// chunk at a time, so the drain never buffers a pair's full result.
type activePair struct {
	ht    *hashTable
	r     *spill.Reader
	probe *spill.Writer
	est   int64
	// A mirrored join's pair also holds the marks of its build rows and,
	// once the probe file is drained (sweepAt >= 0), the sweep's position.
	marks   buildMarks
	sweepAt int
}

// graceProbeWorker is one probe worker's private grace state: route
// buffers while writing, then a stack of partition pairs (repartitioning
// pushes sub-pairs) and the pair currently streaming.
type graceProbeWorker struct {
	g        *graceHashJoin
	bufs     []*RowSet
	scr      probeScratch // per-worker probe scratch for the drain
	in       RowSet       // reused header over the spill reader's chunk buffers
	done     bool         // this worker finished writing (markDone sent)
	draining bool
	stack    []spillPair
	act      *activePair
}

func newGraceProbeWorker(g *graceHashJoin) *graceProbeWorker {
	return &graceProbeWorker{g: g, bufs: make([]*RowSet, g.nparts), in: RowSet{rels: g.probeRels}}
}

// closeActive releases the streaming pair's read handle; called from
// Close so an erroring or cancelled worker leaks no descriptor (the file
// itself is removed by the run's spill-dir cleanup, the reservation by
// the query account's close).
func (w *graceProbeWorker) closeActive() {
	if w.act != nil {
		w.g.probeRec.addBytesRead(w.act.r.BytesRead())
		w.act.r.Close()
		w.act = nil
	}
}

// finishWriting retires this worker from the writer barrier. Idempotent;
// also called from Close so an erroring worker cannot stall the barrier.
func (w *graceProbeWorker) finishWriting() {
	if !w.done {
		w.done = true
		w.g.markDone()
	}
}

// route buffers one input batch into the per-partition buffers, flushing
// any buffer that fills.
func (w *graceProbeWorker) route(in *RowSet) error {
	g := w.g
	ids := in.Col(g.probeKeyRel)
	for i := range ids {
		key := g.probeKeyVals[ids[i]]
		p := int(spillHash(key, 0) % uint64(g.nparts))
		buf := w.bufs[p]
		if buf == nil {
			buf = NewRowSetCap(g.probeRels, graceProbeBufRows)
			w.bufs[p] = buf
		}
		for c := range buf.cols {
			buf.cols[c] = append(buf.cols[c], in.cols[c][i])
		}
		if buf.Len() >= graceProbeBufRows {
			if err := w.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *graceProbeWorker) flush(p int) error {
	buf := w.bufs[p]
	if buf == nil || buf.Len() == 0 {
		return nil
	}
	if err := w.g.probe[p].AppendChunk(buf.cols); err != nil {
		return err
	}
	w.g.probeRec.addBytes(int64(4 + 4*buf.Len()*len(buf.cols)))
	for c := range buf.cols {
		buf.cols[c] = buf.cols[c][:0]
	}
	return nil
}

func (w *graceProbeWorker) flushAll() error {
	for p := range w.bufs {
		if err := w.flush(p); err != nil {
			return err
		}
	}
	return nil
}

// graceNext is probeOp.NextBatch in grace mode: route the child's stream
// to the probe partitions, pass the writer barrier, then drain partition
// pairs. The drain is a streaming state machine — one probe chunk of the
// active pair is joined and emitted per call, so the only drain-side
// memory is the active pair's build table (broker-accounted) plus one
// chunk; a pair's join output is never buffered whole. The probe reads
// each chunk in place: the spill reader's buffers hold the probe row set's
// columns in its order, because the router wrote them from it, and they
// stay unchanged until the reader's next chunk.
func (o *probeOp) graceNext() (*RowSet, error) {
	w := o.gw
	g := w.g
	sh := o.sh
	for {
		if g.ex.stop.Load() {
			w.closeActive()
			return nil, nil
		}
		if act := w.act; act != nil {
			start := time.Now()
			var out *RowSet
			switch {
			case act.sweepAt < 0:
				cols, err := act.r.Next()
				if err != nil {
					return nil, err
				}
				if cols == nil {
					// Drained; only a mirrored join's pair still owes rows.
					act.sweepAt = act.ht.inner.Len()
					if act.marks != nil {
						act.sweepAt = 0
					}
					continue
				}
				w.in.cols = cols
				out = sh.probeBatch(act.ht, &w.in, &w.scr, act.marks)
			case act.sweepAt < act.ht.inner.Len():
				out, act.sweepAt = sh.sweepBatch(act.ht, act.marks, act.sweepAt, &w.scr)
			default:
				w.closeActive()
				act.probe.Remove()
				g.res.Release(act.est)
				continue
			}
			// Probe rows were already counted as RowsIn while routing;
			// the drain only adds output rows.
			sh.stats.observe(0, out.Len(), time.Since(start))
			if out.Len() > 0 {
				return out, nil
			}
			continue
		}
		if len(w.stack) > 0 {
			p := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if err := g.startPair(p, w); err != nil {
				return nil, err
			}
			continue
		}
		if w.draining {
			p := g.cursor.Add(1) - 1
			if p >= int64(g.nparts) {
				return nil, nil
			}
			w.stack = append(w.stack, spillPair{build: g.build[p], probe: g.probe[p]})
			continue
		}
		in, err := o.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			if err := w.flushAll(); err != nil {
				return nil, err
			}
			w.finishWriting()
			// Yield the global worker slot across the barrier so waiting
			// here can never starve the workers it is waiting for. A
			// canceled run may fail to re-acquire: the worker then exits
			// via errSlotLost, holding no slot.
			g.ex.yieldSlot()
			ok := g.waitWriters()
			if !g.ex.acquireSlot() {
				return nil, errSlotLost
			}
			if !ok {
				return nil, nil // run cancelled while waiting
			}
			w.draining = true
			continue
		}
		start := time.Now()
		if err := w.route(in); err != nil {
			return nil, err
		}
		sh.stats.observe(in.Len(), 0, time.Since(start))
	}
}

// startPair opens one (build, probe) pair for streaming: skip it when it
// cannot produce output, repartition it (pushing sub-pairs on the
// worker's stack) when its grant is denied and splitting can help, or
// load the build table and hand the probe file to the chunk streamer.
func (g *graceHashJoin) startPair(p spillPair, w *graceProbeWorker) error {
	bRows, pRows := int(p.build.Rows()), int(p.probe.Rows())
	jt := g.j.JoinType
	preserved, unit := pRows, bRows
	if g.j.BuildPreserved {
		preserved, unit = bRows, pRows
	}
	if preserved == 0 || (unit == 0 && (jt == query.Inner || jt == query.Semi)) {
		// Output rows come from the preserve side, whichever side that is;
		// an empty unit only matters for anti/left, which keep the
		// preserved rows it leaves unmatched.
		p.build.Remove()
		p.probe.Remove()
		return nil
	}
	// An empty build side needs no memory — anti/left stream the probe
	// rows against an empty table, so a denied budget must not trigger a
	// pointless repartition pass.
	est := rowSetBytes(bRows, g.buildRels.Count()) + int64(bRows)*hashEntryBytes
	if bRows == 0 {
		est = 0
	}
	if !g.res.Grow(est, nil) {
		if p.level < graceMaxDepth && (bRows > graceMinPartRows || pRows > graceMinPartRows) {
			return g.repartition(p, w)
		}
		// The pair cannot usefully be split further (skewed key or tiny
		// partition): take the overage.
		g.res.Force(est)
	}
	buildRS, err := readSpill(p.build, g.buildRels, g.probeRec)
	if err != nil {
		g.res.Release(est)
		return err
	}
	p.build.Remove()
	ht, err := buildHashTable(g.ex, g.j, buildRS)
	if err != nil {
		g.res.Release(est)
		return err
	}
	// Replace the hashEntryBytes estimate with the built table's exact
	// footprint; the active pair releases the adjusted figure when its
	// probe stream drains.
	exact := rowSetBytes(bRows, g.buildRels.Count()) +
		ht.tab.Bytes() + 8*int64(bRows)*int64(1+len(ht.innerExtras))
	var marks buildMarks
	if g.j.BuildPreserved {
		marks = newBuildMarks(bRows)
		exact += marks.bytes()
	}
	if exact > est {
		g.res.Force(exact - est)
	} else {
		g.res.Release(est - exact)
	}
	est = exact
	r, err := p.probe.Reader()
	if err != nil {
		g.res.Release(est)
		return err
	}
	w.act = &activePair{ht: ht, r: r, probe: p.probe, est: est, marks: marks, sweepAt: -1}
	return nil
}

// repartition streams both files of a too-big pair into graceSubParts
// sub-pairs hashed at the next level, pushed onto the worker's stack.
func (g *graceHashJoin) repartition(p spillPair, w *graceProbeWorker) error {
	bw, pw, level := p.build, p.probe, p.level
	g.probeRec.bumpDepth(level + 1)
	d, err := g.ex.spillFiles()
	if err != nil {
		return err
	}
	subB, err := partitionWriters(d, "gjb", graceSubParts, g.buildRels.Count())
	if err != nil {
		return err
	}
	subP, err := partitionWriters(d, "gjp", graceSubParts, g.probeRels.Count())
	if err != nil {
		return err
	}
	g.probeRec.addParts(2 * graceSubParts)
	route := func(src *spill.Writer, keyPos int, vals []int64, dst []*spill.Writer) error {
		var keys []int64
		err := eachChunk(src, g.probeRec, func(cols [][]int32) error {
			keys = keys[:0]
			for _, id := range cols[keyPos] {
				keys = append(keys, vals[id])
			}
			written, err := routeCols(cols, keys, level+1, dst)
			g.probeRec.addBytes(written)
			return err
		})
		if err != nil {
			return err
		}
		return src.Remove()
	}
	if err := route(bw, g.buildKeyPos, g.buildKeyVals, subB); err != nil {
		return err
	}
	if err := route(pw, g.probeKeyPos, g.probeKeyVals, subP); err != nil {
		return err
	}
	for i := 0; i < graceSubParts; i++ {
		if err := subB[i].Finish(); err != nil {
			return err
		}
		if err := subP[i].Finish(); err != nil {
			return err
		}
		w.stack = append(w.stack, spillPair{build: subB[i], probe: subP[i], level: level + 1})
	}
	return nil
}

// buildRows is the build side's total row count across partitions.
func (g *graceHashJoin) buildRows() int {
	var n int64
	for _, w := range g.build {
		n += w.Rows()
	}
	return int(n)
}

// feedBuildChunks is the Bloom build's chunk feeder — the out-of-memory
// counterpart of feedVector: one streaming pass over the spilled
// build partitions feeds every filter. Bloom bits are order-independent,
// so the filters (and their Inserted counts) equal an in-memory build over
// the same rows.
func (g *graceHashJoin) feedBuildChunks(builds []*bloomBuild) error {
	for _, w := range g.build {
		err := eachChunk(w, g.buildRec, func(cols [][]int32) error {
			for _, b := range builds {
				ids := cols[g.buildRels.Rank(b.rel)]
				b.insert(ids)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
