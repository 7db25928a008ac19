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
// to nparts partition files (level-0 hash). The probe pipeline splits in
// two at the join (runPipeline): its first stage ends in a route sink that
// routes every worker's input to the matching probe partition files
// instead of probing, and its next stage starts from a drain: workers
// claim partitions from a shared cursor and join each pair — loading the
// build partition, building its table with buildHashTable on the claiming
// worker's own goroutine, and streaming the probe partition through the
// shared probeBatch kernel, so all join types (inner/semi/anti/left) and
// extra conditions work unchanged. The stages' boundary is the barrier:
// no drain starts before every probe row is on disk. A mirrored join
// marks and sweeps pair by pair: equal keys share a partition, so a
// pair's build rows owe nothing to any other pair's probe rows. A
// partition pair whose grant is denied again repartitions recursively
// with a level-salted hash, up to graceMaxDepth.

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

	// Probe side, initialized when the probe pipeline is set up; cursor
	// hands out partitions to drain.
	probeRels    query.RelSet
	probeKeyRel  int
	probeKeyPos  int
	probeKeyVals []int64
	probe        []*spill.Writer
	probeRec     *spillCounters
	res          *mem.Reservation
	cursor       atomic.Int64
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

// newRouteSink attaches the probe side — partition files matching the
// build fan-out and the probe-key gather — and returns the sink that ends
// the probe pipeline's route stage. Called once during probe-pipeline
// setup, before any worker starts.
func (g *graceHashJoin) newRouteSink(sh *probeShared, inRels query.RelSet,
	workers int, rec *spillCounters, res *mem.Reservation) (*routeSink, error) {
	d, err := g.ex.spillFiles()
	if err != nil {
		return nil, err
	}
	g.probeRels = inRels
	g.probeKeyRel = sh.outerRels[0]
	g.probeKeyPos = inRels.Rank(g.probeKeyRel)
	g.probeKeyVals = sh.outerVals[0]
	if g.probe, err = partitionWriters(d, "probe", g.nparts, inRels.Count()); err != nil {
		return nil, err
	}
	g.probeRec = rec
	g.res = res
	rec.addParts(int64(g.nparts))
	s := &routeSink{g: g, stats: sh.stats, bufs: make([][]*RowSet, workers)}
	for w := range s.bufs {
		s.bufs[w] = make([]*RowSet, g.nparts)
	}
	return s, nil
}

// graceProbeBufRows bounds each worker's per-partition route buffer.
const graceProbeBufRows = 1024

// routeSink ends the route stage of a pipeline whose join spilled: each
// worker hash-partitions its batches into per-partition buffers of its
// own and appends a buffer that fills to the partition's probe file as
// one chunk; finish flushes what is left. Routed rows are the join's
// RowsIn; the drain adds its RowsOut. A failed write fails the run, so
// finish never runs after one.
type routeSink struct {
	g     *graceHashJoin
	stats *opStats
	bufs  [][]*RowSet // [worker][partition]
}

func (s *routeSink) consume(w int, in *RowSet) {
	start := time.Now()
	if err := s.route(s.bufs[w], in); err != nil {
		s.g.ex.fail(err)
	}
	s.stats.observe(in.Len(), 0, time.Since(start))
}

// route copies one input batch into a worker's partition buffers,
// flushing any buffer that fills.
func (s *routeSink) route(bufs []*RowSet, in *RowSet) error {
	g := s.g
	ids := in.Col(g.probeKeyRel)
	for i := range ids {
		key := g.probeKeyVals[ids[i]]
		p := int(spillHash(key, 0) % uint64(g.nparts))
		buf := bufs[p]
		if buf == nil {
			buf = NewRowSetCap(g.probeRels, graceProbeBufRows)
			bufs[p] = buf
		}
		for c := range buf.cols {
			buf.cols[c] = append(buf.cols[c], in.cols[c][i])
		}
		if buf.Len() >= graceProbeBufRows {
			if err := s.flush(buf, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *routeSink) flush(buf *RowSet, p int) error {
	if buf == nil || buf.Len() == 0 {
		return nil
	}
	if err := s.g.probe[p].AppendChunk(buf.cols); err != nil {
		return err
	}
	s.g.probeRec.addBytes(int64(4 + 4*buf.Len()*len(buf.cols)))
	for c := range buf.cols {
		buf.cols[c] = buf.cols[c][:0]
	}
	return nil
}

// finish flushes every worker's partly filled buffers, on the pipeline's
// goroutine once the route stage's workers have joined.
func (s *routeSink) finish() error {
	for _, bufs := range s.bufs {
		for p, buf := range bufs {
			if err := s.flush(buf, p); err != nil {
				return err
			}
		}
	}
	return nil
}

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

// drainOp is the source of the stage after a route stage: one worker's
// drain of the spilled join's partition pairs. It keeps a stack of pairs
// (repartitioning pushes sub-pairs) and the pair it is streaming. The
// drain is a streaming state machine — one probe chunk of the active pair
// is joined and emitted per call, so the only drain-side memory is the
// active pair's build table (broker-accounted) plus one chunk; a pair's
// join output is never buffered whole. The probe reads each chunk in
// place: the spill reader's buffers hold the probe row set's columns in
// its order, because the route sink wrote them from it, and they stay
// unchanged until the reader's next chunk.
type drainOp struct {
	sh    *probeShared
	g     *graceHashJoin
	scr   probeScratch // per-worker probe scratch
	in    RowSet       // reused header over the spill reader's chunk buffers
	stack []spillPair
	act   *activePair
}

func (o *drainOp) Open() error {
	o.in.rels = o.g.probeRels
	return nil
}

// Close releases the streaming pair's read handle, so an erroring or
// cancelled worker leaks no descriptor (the file itself is removed by the
// run's spill-dir cleanup, the reservation by the query account's close).
func (o *drainOp) Close() error {
	if o.act != nil {
		o.g.probeRec.addBytesRead(o.act.r.BytesRead())
		o.act.r.Close()
		o.act = nil
	}
	return nil
}

func (o *drainOp) NextBatch() (*RowSet, error) {
	g, sh := o.g, o.sh
	for {
		if g.ex.stop.Load() {
			o.Close()
			return nil, nil
		}
		if act := o.act; act != nil {
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
				o.in.cols = cols
				out = sh.probeBatch(act.ht, &o.in, &o.scr, act.marks)
			case act.sweepAt < act.ht.inner.Len():
				out, act.sweepAt = sh.sweepBatch(act.ht, act.marks, act.sweepAt, &o.scr)
			default:
				o.Close()
				act.probe.Remove()
				g.res.Release(act.est)
				continue
			}
			sh.stats.observe(0, out.Len(), time.Since(start))
			if out.Len() > 0 {
				return out, nil
			}
			continue
		}
		if len(o.stack) == 0 {
			p := g.cursor.Add(1) - 1
			if p >= int64(g.nparts) {
				return nil, nil
			}
			o.stack = append(o.stack, spillPair{build: g.build[p], probe: g.probe[p]})
		}
		p := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		if err := g.startPair(p, o); err != nil {
			return nil, err
		}
	}
}

// startPair opens one (build, probe) pair for streaming: skip it when it
// cannot produce output, repartition it (pushing sub-pairs on the
// drain's stack) when its grant is denied and splitting can help, or
// load the build table and hand the probe file to the chunk streamer.
func (g *graceHashJoin) startPair(p spillPair, w *drainOp) error {
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
	exact := rowSetBytes(bRows, g.buildRels.Count()) + ht.bytes()
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
// sub-pairs hashed at the next level, pushed onto the drain's stack.
func (g *graceHashJoin) repartition(p spillPair, w *drainOp) error {
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
