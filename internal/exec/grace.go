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
// runs partition pair by partition pair. Each side is a graceSide, and a
// row of either side reaches its partition file one way, through a router
// (spillio.go), which writes each call's rows before it returns: the build
// sink's workers route their buffered parts through routers of their own,
// the probe pipeline's route sink routes every worker's input the same
// way, and a repartition step routes both files of a pair at the next hash
// level. The probe pipeline splits in two at the join (newPipeRun): its
// first stage ends in the route sink, and its next stage starts from a
// drain: workers claim partitions from a shared cursor and join each pair
// — loading the build partition, building its table with buildHashTable
// on the claiming worker's own goroutine, and streaming the probe
// partition, a block of at most spill.ReadRows rows at a time, through the
// shared probeBatch kernel, so all join types (inner/semi/anti/left) and
// extra conditions work unchanged. The stages' boundary is the barrier:
// the route stage's last worker launches the drain once every probe row is
// on disk. A mirrored join marks and sweeps pair by pair: equal keys share
// a partition, so a pair's build rows owe nothing to any other pair's
// probe rows. A
// partition pair whose grant is denied again repartitions recursively with
// a level-salted hash, up to graceMaxDepth.

// graceSide is one side of a spilled join — its build side, its probe side,
// or either side of a repartition step: the relations its rows cover, the
// key relation's column position in the spill layout, the key values by
// row id (keys are re-derived from the store, never spilled), its
// partition files, the pipeline counters its spill I/O lands in, and the
// join side its rows count as there (kind).
type graceSide struct {
	kind    sideKind
	rels    query.RelSet
	keyPos  int
	keyVals []int64
	parts   []*spill.Writer
	rec     *spillCounters
}

// open returns the side over n new partition files, counted on rec.
func (s graceSide) open(ex *executor, name string, n int, rec *spillCounters) (graceSide, error) {
	d, err := ex.spillFiles()
	if err != nil {
		return s, err
	}
	s.parts, s.rec = make([]*spill.Writer, n), rec
	for p := range s.parts {
		if s.parts[p], err = d.NewWriter(name, s.rels.Count()); err != nil {
			return s, err
		}
	}
	rec.addParts(int64(n))
	return s, nil
}

// finish flushes the side's partition files once its routing is done.
func (s *graceSide) finish() error {
	for _, w := range s.parts {
		if err := w.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// rows is the side's row count across its partitions.
func (s *graceSide) rows() int {
	var n int64
	for _, w := range s.parts {
		n += w.Rows()
	}
	return int(n)
}

// graceHashJoin is the shared state of one spilled hash join, created by
// the build sink and completed by the probe pipeline, which attaches the
// probe side, the drain's reservation and the cursor that hands out
// partitions to drain.
type graceHashJoin struct {
	ex           *executor
	j            *plan.Join
	build, probe graceSide
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
	rels := j.Inner.Rels()
	build := graceSide{kind: buildSide, rels: rels, keyPos: rels.Rank(c0.InnerRel), keyVals: col.Ints}
	n := spillPartitionCount(estRows, rels.Count(), ex.budget)
	if build, err = build.open(ex, "build", n, rec); err != nil {
		return nil, err
	}
	return &graceHashJoin{ex: ex, j: j, build: build}, nil
}

// newRouteSink attaches the probe side — partition files matching the
// build fan-out and the probe-key gather — and returns the sink that ends
// the probe pipeline's route stage. Called once during probe-pipeline
// setup, before any worker starts.
func (g *graceHashJoin) newRouteSink(sh *probeShared, inRels query.RelSet,
	workers int, rec *spillCounters, res *mem.Reservation) (*routeSink, error) {
	probe := graceSide{kind: probeSide, rels: inRels, keyPos: inRels.Rank(sh.outerRels[0]), keyVals: sh.outerVals[0]}
	var err error
	if g.probe, err = probe.open(g.ex, "probe", len(g.build.parts), rec); err != nil {
		return nil, err
	}
	g.res = res
	return &routeSink{ex: g.ex, stats: sh.stats, routers: newRouters(&g.probe, workers)}, nil
}

// routeSink ends the route stage of a pipeline whose join spilled: each
// worker routes its batches through a router of its own, which writes them
// before consume returns, so finish has nothing left to do. Routed rows
// are the join's RowsIn; the drain adds its RowsOut. A failed write fails
// the run.
type routeSink struct {
	ex      *executor
	stats   *opStats
	routers []router // by worker
}

func (s *routeSink) consume(w int, in *RowSet) {
	start := time.Now()
	if err := s.routers[w].route(in.cols); err != nil {
		s.ex.fail(err)
	}
	s.stats.observe(in.Len(), 0, time.Since(start))
}

func (s *routeSink) finish() error { return nil }

// spillPair is one (build, probe) partition pair awaiting its join, with
// the hash level its files were routed at.
type spillPair struct {
	build, probe *spill.Writer
	level        int
}

// activePair is the pair a worker is currently streaming: the loaded
// build table plus an open probe reader. Join output is emitted one probe
// block at a time, so the drain never buffers a pair's full result.
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
// drain is a streaming state machine — one probe block of the active pair
// is joined and emitted per call, so the only drain-side memory is the
// active pair's build table (broker-accounted) plus one block; a pair's
// join output is never buffered whole. The probe reads each block in
// place: the spill reader's buffers hold the probe row set's columns in
// its order, because the route sink wrote them from it, and they stay
// unchanged until the reader's next block.
type drainOp struct {
	sh    *probeShared
	g     *graceHashJoin
	scr   probeScratch // per-worker probe scratch
	in    RowSet       // reused header over the spill reader's block buffers
	stack []spillPair
	act   *activePair
}

func (o *drainOp) Open() error {
	o.in.rels = o.g.probe.rels
	return nil
}

// Close releases the streaming pair's read handle, so an erroring or
// cancelled worker leaks no descriptor (the file itself is removed by the
// run's spill-dir cleanup, the reservation by the query account's close).
func (o *drainOp) Close() error {
	if o.act != nil {
		o.g.probe.rec.readBack(probeSide, o.act.r)
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
			if p >= int64(len(g.build.parts)) {
				return nil, nil
			}
			o.stack = append(o.stack, spillPair{build: g.build.parts[p], probe: g.probe.parts[p]})
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
// load the build table and hand the probe file to the block streamer.
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
	// An empty build side asks for nothing, and a grant of nothing always
	// succeeds — anti/left stream the probe rows against an empty table,
	// so a denied budget must not trigger a pointless repartition pass.
	est := buildGrant(bRows, g.build.rels.Count())
	if !g.res.Grow(est, nil) {
		if p.level < graceMaxDepth && (bRows > graceMinPartRows || pRows > graceMinPartRows) {
			return g.repartition(p, w)
		}
		// The pair cannot usefully be split further (skewed key or tiny
		// partition): take the overage.
		g.res.Force(est)
	}
	buildRS, err := readSpill(p.build, g.build.rels, g.probe.rec)
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
	exact := rowSetBytes(bRows, g.build.rels.Count()) + ht.bytes()
	var marks buildMarks
	if g.j.BuildPreserved {
		marks = newBuildMarks(bRows)
		exact += marks.bytes()
	}
	est = settle(g.res, est, exact)
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
	level, rec := p.level+1, g.probe.rec
	rec.bumpDepth(level)
	subB, err := g.build.open(g.ex, "gjb", graceSubParts, rec)
	if err != nil {
		return err
	}
	subP, err := g.probe.open(g.ex, "gjp", graceSubParts, rec)
	if err != nil {
		return err
	}
	route := func(src *spill.Writer, dst *graceSide) error {
		r := router{side: dst, level: level}
		if err := eachBlock(src, rec, dst.kind, r.route); err != nil {
			return err
		}
		if err := dst.finish(); err != nil {
			return err
		}
		return src.Remove()
	}
	if err := route(p.build, &subB); err != nil {
		return err
	}
	if err := route(p.probe, &subP); err != nil {
		return err
	}
	for i := range subB.parts {
		w.stack = append(w.stack, spillPair{build: subB.parts[i], probe: subP.parts[i], level: level})
	}
	return nil
}

// feedBuildBlocks is the Bloom build's block feeder — the out-of-memory
// counterpart of feedVector: one streaming pass over the spilled
// build partitions, a block at a time, feeds every filter. Bloom bits are
// order-independent, so the filters (and their Inserted counts) equal an
// in-memory build over the same rows.
func (g *graceHashJoin) feedBuildBlocks(builds []*bloomBuild) error {
	for _, w := range g.build.parts {
		err := eachBlock(w, g.build.rec, buildSide, func(cols [][]int32) error {
			for _, b := range builds {
				ids := cols[g.build.rels.Rank(b.rel)]
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
