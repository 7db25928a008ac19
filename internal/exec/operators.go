package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/hashtab"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// ---------------------------------------------------------------------------
// Scan source: workers pull morsels of base-table rows from a shared atomic
// cursor, apply the residual predicate and Bloom probes, and emit batches of
// qualifying row ids. This is the morsel-driven entry point of a pipeline.

// scanBloom is one Bloom filter a scan probes, with shared atomic tallies.
// Workers accumulate in per-worker locals and fold into the atomics once at
// Close, so the probe loop itself performs no atomic operations.
type scanBloom struct {
	bloomProbe
	tested atomic.Int64
	passed atomic.Int64
}

// scanSource is the shared state of a scan pipeline source. The predicate
// is compiled once into kernels bound to the table's column slices; workers
// share the immutable kernels and keep private adaptive chains. All runtime
// counters are folded from per-worker locals at operator Close.
type scanSource struct {
	s       *plan.Scan
	tbl     *storage.Table
	kernels []query.Kernel
	bfs     []*scanBloom
	n       int
	morsel  int
	cursor  atomic.Int64
	stats   *opStats
	// stop is the run-wide cancellation flag: once set (first worker
	// error), the source hands out no further morsels, so sibling workers
	// and concurrently scheduled pipelines wind down promptly instead of
	// draining the table.
	stop *atomic.Bool

	morsels         atomic.Int64
	predIn, predOut []atomic.Int64 // one pair per kernel, compile order
}

func (ex *executor) newScanSource(s *plan.Scan, stats *opStats) (*scanSource, error) {
	tbl := ex.tables[s.Rel]
	kernels, err := query.Compile(s.Pred, tbl)
	if err != nil {
		return nil, fmt.Errorf("exec: scan of %s: %w", s.Alias, err)
	}
	src := &scanSource{
		s: s, tbl: tbl, kernels: kernels,
		n: tbl.NumRows(), morsel: ex.morsel, stats: stats,
		stop:    &ex.stop,
		predIn:  make([]atomic.Int64, len(kernels)),
		predOut: make([]atomic.Int64, len(kernels)),
	}
	probes, err := ex.blooms.probesFor(s)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		src.bfs = append(src.bfs, &scanBloom{bloomProbe: p})
	}
	return src, nil
}

// flushBloomStats folds the atomic tallies into the BloomRuntime records;
// called once, after the pipeline's workers have all finished.
func (src *scanSource) flushBloomStats() {
	for _, b := range src.bfs {
		b.st.Tested += b.tested.Load()
		b.st.Passed += b.passed.Load()
	}
}

// runtime snapshots the scan's execution counters; called after the
// pipeline's workers folded their locals at Close.
func (src *scanSource) runtime() ScanRuntime {
	rt := ScanRuntime{
		Rel: src.s.Rel, Alias: src.s.Alias,
		Morsels: src.morsels.Load(),
	}
	for i, k := range src.kernels {
		rt.Preds = append(rt.Preds, PredRuntime{
			Pred: k.Label(), In: src.predIn[i].Load(), Out: src.predOut[i].Load(),
		})
	}
	return rt
}

// scanOp is the per-worker operator over a shared scanSource. All scratch —
// the selection vector, the two-column filters' hash buffer, the adaptive
// kernel chain and every tally — is per worker, allocated once in Open;
// the steady-state batch loop allocates only its output rows. Tallies fold
// into the source's atomics once per worker at Close (workers close before
// the pipeline joins them, so the fold always precedes the flush).
type scanOp struct {
	src   *scanSource
	chain *query.Chain
	sel   []int32
	hs    []uint64 // combined-key hashes of a two-column filter's test
	out   Batch    // reused output batch header

	localTested  []int64
	localPassed  []int64
	localMorsels int64
}

func (o *scanOp) Open() error {
	src := o.src
	o.localTested = make([]int64, len(src.bfs))
	o.localPassed = make([]int64, len(src.bfs))
	if len(src.kernels) > 0 {
		o.chain = query.NewChain(src.kernels)
	}
	o.sel = make([]int32, src.morsel)
	for _, b := range src.bfs {
		if b.vals2 != nil {
			o.hs = make([]uint64, src.morsel)
			break
		}
	}
	return nil
}

func (o *scanOp) Close() error {
	src := o.src
	for k, b := range src.bfs {
		b.tested.Add(o.localTested[k])
		b.passed.Add(o.localPassed[k])
	}
	src.morsels.Add(o.localMorsels)
	if o.chain != nil {
		for i, c := range o.chain.Counts() {
			src.predIn[i].Add(c.In)
			src.predOut[i].Add(c.Out)
		}
	}
	return nil
}

// NextBatch is the batch kernel path: claim a morsel, run the adaptive
// kernel chain over the selection vector, then test the Bloom filters in
// plan order, each in one fused pass over the surviving rows' keys
// (bloom.Filter.FilterSel). A two-column filter first hashes its combined
// keys into scratch. This is the only way a scan drops rows.
func (o *scanOp) NextBatch() (*Batch, error) {
	src := o.src
	for {
		if src.stop != nil && src.stop.Load() {
			return nil, nil
		}
		lo := int(src.cursor.Add(int64(src.morsel))) - src.morsel
		if lo >= src.n {
			return nil, nil
		}
		hi := lo + src.morsel
		if hi > src.n {
			hi = src.n
		}
		start := time.Now()
		o.localMorsels++
		sel := o.sel[:hi-lo]
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		if o.chain != nil {
			sel = o.chain.EvalBatch(sel)
		}
		for k, b := range src.bfs {
			if len(sel) == 0 {
				break
			}
			o.localTested[k] += int64(len(sel))
			if b.vals2 == nil {
				sel = b.h.FilterSel(b.vals, sel)
			} else {
				hs := o.hs[:len(sel)]
				for i, r := range sel {
					hs[i] = b.hashOf(r)
				}
				sel = b.h.FilterSelHashes(hs, sel)
			}
			o.localPassed[k] += int64(len(sel))
		}
		src.stats.observe(hi-lo, len(sel), time.Since(start))
		if len(sel) == 0 {
			continue
		}
		out := NewRowSetCap(query.NewRelSet(src.s.Rel), len(sel))
		out.cols[0] = append(out.cols[0], sel...)
		o.out = Batch{rows: out, sel: out.cols[0]}
		return &o.out, nil
	}
}

// ---------------------------------------------------------------------------
// Hash-join probe: batches stream against a shared, read-only hash table
// built by the join's build pipeline.

// hashTable is the shared result of a hash-build sink: the materialized
// build side, the gathered key columns, and the probe structure — one flat
// unchained hashtab.JoinTable over every build row.
type hashTable struct {
	inner       *RowSet
	innerKeys   []int64
	innerExtras [][]int64
	tab         *hashtab.JoinTable
}

// buildMarks is a mirrored join's match bitmap, one bit per build row. Each
// probe worker sets bits in a bitmap of its own, so the probe loop needs no
// atomics; the bitmaps meet once, when a worker retires (probeShared.retire)
// — or never, in grace mode, where a partition pair belongs to one worker.
type buildMarks []uint64

func newBuildMarks(rows int) buildMarks { return make(buildMarks, (rows+63)/64) }

func (m buildMarks) set(i int32)      { m[i>>6] |= 1 << (uint(i) & 63) }
func (m buildMarks) has(i int32) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func (m buildMarks) bytes() int64     { return 8 * int64(len(m)) }

// gatherBuildKeys materializes the build side's key columns — split from
// buildDirectory so the hash-build sink can feed the same keys to Bloom
// population before the table build.
func gatherBuildKeys(ex *executor, j *plan.Join, inner *RowSet) (*hashTable, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: hash join with no conditions")
	}
	switch j.JoinType {
	case query.Inner, query.Semi, query.Anti, query.Left:
	default:
		return nil, fmt.Errorf("exec: unsupported hash join type %s", j.JoinType)
	}
	c0 := j.Conds[0]
	ht := &hashTable{
		inner:     inner,
		innerKeys: keyColumn(inner, ex.tables[c0.InnerRel], c0.InnerRel, c0.InnerCol),
	}
	if len(ht.innerKeys) > hashtab.MaxRows {
		return nil, fmt.Errorf("exec: hash build side of %d rows exceeds the int32 row-id domain", len(ht.innerKeys))
	}
	for _, c := range j.Conds[1:] {
		ht.innerExtras = append(ht.innerExtras, keyColumn(inner, ex.tables[c.InnerRel], c.InnerRel, c.InnerCol))
	}
	return ht, nil
}

// buildDirectory hashes the gathered keys and builds the flat join
// directory over them; the hash vector is dropped, as probes hash per
// batch. Payload order is ascending build-row id per key.
func (ht *hashTable) buildDirectory() error {
	t, err := hashtab.Build(ht.innerKeys, hashtab.HashVec(ht.innerKeys, nil), nil)
	ht.tab = t
	return err
}

// buildHashTable gathers the build keys and builds the directory in one
// step — the path used by the grace drain, where Bloom filters were already
// populated from the spill files.
func buildHashTable(ex *executor, j *plan.Join, inner *RowSet) (*hashTable, error) {
	ht, err := gatherBuildKeys(ex, j, inner)
	if err != nil {
		return nil, err
	}
	if err := ht.buildDirectory(); err != nil {
		return nil, err
	}
	return ht, nil
}

// probeShared is the per-pipeline state of one hash-probe operator. In
// grace mode (the build side spilled) ht is nil and grace carries the
// partition state instead.
type probeShared struct {
	j       *plan.Join
	ht      *hashTable
	grace   *graceHashJoin
	outRels query.RelSet
	wiring  *colWiring
	// outerVals[e] maps a base-table row id of the outer key relation to
	// its key value; e=0 is the hash condition, the rest verify extras.
	outerVals [][]int64
	outerRels []int
	stats     *opStats

	// Mirrored joins over an in-memory table (j.BuildPreserved, ht != nil):
	// probing counts the workers whose input is not yet exhausted, marks is
	// the union of the retired workers' bitmaps, and the worker that brings
	// probing to zero sweeps the build rows.
	probing atomic.Int32
	mu      sync.Mutex
	marks   buildMarks
}

func (ex *executor) newProbeShared(j *plan.Join, ht *hashTable, g *graceHashJoin,
	inRels query.RelSet, stats *opStats, workers int, rec *spillCounters) (*probeShared, error) {
	sh := &probeShared{
		j: j, ht: ht,
		outRels: inRels.Union(j.Inner.Rels()),
		stats:   stats,
	}
	sh.wiring = newColWiring(sh.outRels, inRels, j.Inner.Rels())
	for _, c := range j.Conds {
		col, err := ex.tables[c.OuterRel].Column(c.OuterCol)
		if err != nil {
			return nil, fmt.Errorf("exec: probe column: %w", err)
		}
		sh.outerVals = append(sh.outerVals, col.Ints)
		sh.outerRels = append(sh.outerRels, c.OuterRel)
	}
	if g != nil {
		if err := g.initProbe(inRels, sh.outerRels[0], sh.outerVals[0], workers, rec, ex.memq.Reserve()); err != nil {
			return nil, err
		}
		sh.grace = g
	} else if j.BuildPreserved {
		sh.probing.Store(int32(workers))
		sh.marks = newBuildMarks(ht.inner.Len())
		// One bitmap per worker plus their union: they must stay resident.
		ex.memq.Reserve().Force(int64(workers+1) * sh.marks.bytes())
	}
	return sh, nil
}

// retire folds one worker's marks into the shared bitmap after its input ran
// dry, and reports whether it was the last worker still probing: that one
// sweeps. The mutex orders every earlier fold before the sweeper's reads.
func (sh *probeShared) retire(marks buildMarks) bool {
	sh.mu.Lock()
	for w, bits := range marks {
		sh.marks[w] |= bits
	}
	sh.mu.Unlock()
	return sh.probing.Add(-1) == 0
}

// probeScratch is one worker's reusable probe-batch scratch: the
// per-condition outer row-id columns, the gathered key and hash vectors,
// the match-pair vectors, and the reused output row set — recycled across
// morsels so the steady-state vectorized probe loop allocates nothing.
// (Reusing the output is safe under the batch ownership contract: sinks
// and downstream operators consume each batch before the worker's next
// NextBatch on this operator.)
type probeScratch struct {
	outerIDs [][]int32
	keys     []int64
	hashes   []uint64
	// candO/candI are the match-pair vectors of the probe phase; outO/outI
	// hold the gap-filled pairs of a Left join after the extras filter.
	candO, candI []int32
	outO, outI   []int32
	out          *RowSet
	outBatch     Batch
}

// ensureOut returns the reusable output row set sized to n rows.
func (scr *probeScratch) ensureOut(rels query.RelSet, n int) *RowSet {
	if scr.out == nil {
		scr.out = NewRowSetCap(rels, n)
	}
	rs := scr.out
	for c := range rs.cols {
		if cap(rs.cols[c]) < n {
			rs.cols[c] = make([]int32, n)
		}
		rs.cols[c] = rs.cols[c][:n]
	}
	return rs
}

// probeOp streams batches from child through the hash table (or, in grace
// mode, through the partition files — see graceNext).
type probeOp struct {
	sh    *probeShared
	ex    *executor
	child PhysicalOperator
	scr   probeScratch
	gw    *graceProbeWorker

	// Mirrored join, in-memory table: this worker's marks (nil once it has
	// retired them) and — for the one worker that sweeps — the next build
	// row to look at (-1: not sweeping).
	marks   buildMarks
	sweepAt int
}

func (o *probeOp) Open() error {
	o.sweepAt = -1
	if o.sh.grace != nil {
		o.gw = newGraceProbeWorker(o.sh.grace)
	} else if o.sh.j.BuildPreserved {
		o.marks = newBuildMarks(o.sh.ht.inner.Len())
	}
	return o.child.Open()
}

func (o *probeOp) Close() error {
	if o.gw != nil {
		// An erroring or cancelled worker must still retire from the
		// writer barrier, or sibling workers would wait forever — and
		// must release its streaming pair's read handle.
		o.gw.finishWriting()
		o.gw.closeActive()
	}
	return o.child.Close()
}

// matchIn verifies the extra (non-hash) conditions for one candidate pair
// against the given hash table (grace mode probes per-partition tables,
// so the table is a parameter rather than sh.ht).
func (sh *probeShared) matchIn(ht *hashTable, outerIDs [][]int32, oi int, ii int32) bool {
	for e := 1; e < len(sh.outerVals); e++ {
		if sh.outerVals[e][outerIDs[e][oi]] != ht.innerExtras[e-1][ii] {
			return false
		}
	}
	return true
}

// probeBatch is the probe kernel: it joins one input batch against ht and
// returns the output batch. It is shared by the streaming NextBatch path
// and the grace drain, which probes reloaded partition chunks through the
// same code so every join type and extra condition behaves identically.
// The returned batch is scr-backed scratch, valid until the next call.
//
// The kernel runs in three phases. Gather: resolve the per-condition
// outer row-id columns once, gather the key column through them into
// scratch, and hash the whole vector once via HashVec. Probe: a tight
// monomorphic loop per JoinType walks the flat directory and emits
// match-pair vectors (outer batch position, build row id); extra non-hash
// conditions run as a vectorized post-filter, one
// column loop per condition, over the pair vectors. Emit: bulk per-column
// gathers driven by the pair vectors materialize the output columns
// through the precomputed wiring. Output row order is ascending outer
// position, ascending build row id within a key (the payload order).
//
// A mirrored join (sh.j.BuildPreserved) probes with the unit's rows and
// records every verified match in marks, the caller's bitmap over ht's build
// rows: its semi and anti forms emit nothing here, its left form the matched
// pairs; sweepBatch emits the build rows afterwards.
func (sh *probeShared) probeBatch(ht *hashTable, in *Batch, scr *probeScratch, marks buildMarks) *Batch {
	n := in.rows.Len()
	gatherStart := time.Now()
	if cap(scr.outerIDs) < len(sh.outerRels) {
		scr.outerIDs = make([][]int32, len(sh.outerRels))
	}
	outerIDs := scr.outerIDs[:len(sh.outerRels)]
	for e, rel := range sh.outerRels {
		outerIDs[e] = in.rows.Col(rel)
	}
	keyIDs, keyVals := outerIDs[0], sh.outerVals[0]
	if cap(scr.keys) < n {
		scr.keys = make([]int64, n)
	}
	keys := scr.keys[:n]
	for oi := 0; oi < n; oi++ {
		keys[oi] = keyVals[keyIDs[oi]]
	}
	hs := hashtab.HashVec(keys, scr.hashes)
	scr.hashes = hs // keep a grown backing array
	gatherWall := time.Since(gatherStart)

	probeStart := time.Now()
	extras := len(sh.outerVals) > 1
	candO, candI := scr.candO[:0], scr.candI[:0]
	switch {
	case sh.j.BuildPreserved && sh.j.JoinType == query.Left:
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
			}
		}
		if extras {
			candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
		}
		for _, ii := range candI {
			marks.set(ii)
		}
	case sh.j.BuildPreserved:
		// Semi and anti: every build row with a verified match gets its
		// mark — no stopping at the first, the key's other rows match too.
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				if !marks.has(ii) && (!extras || sh.matchIn(ht, outerIDs, oi, ii)) {
					marks.set(ii)
				}
			}
		}
	case sh.j.JoinType == query.Inner:
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
			}
		}
		if extras {
			candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
		}
	case sh.j.JoinType == query.Semi:
		// One output row per outer row with a passing match; the unit's
		// columns are null, as after an anti join.
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				if extras && !sh.matchIn(ht, outerIDs, oi, ii) {
					continue
				}
				candO = append(candO, int32(oi))
				candI = append(candI, nullRow)
				break
			}
		}
	case sh.j.JoinType == query.Anti:
		for oi := 0; oi < n; oi++ {
			found := false
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				if !extras || sh.matchIn(ht, outerIDs, oi, ii) {
					found = true
					break
				}
			}
			if !found {
				candO = append(candO, int32(oi))
				candI = append(candI, nullRow)
			}
		}
	case sh.j.JoinType == query.Left:
		for oi := 0; oi < n; oi++ {
			for _, ii := range ht.tab.Lookup(keys[oi], hs[oi]) {
				candO = append(candO, int32(oi))
				candI = append(candI, ii)
			}
		}
		if extras {
			candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
		}
	}
	scr.candO, scr.candI = candO, candI // keep grown backing arrays
	pairO, pairI := candO, candI
	if sh.j.JoinType == query.Left && !sh.j.BuildPreserved {
		// Gap fill: candO is ascending, so one merge walk emits every
		// surviving match and null-extends outer rows with none.
		outO, outI := scr.outO[:0], scr.outI[:0]
		k := 0
		for oi := 0; oi < n; oi++ {
			had := false
			for k < len(candO) && candO[k] == int32(oi) {
				outO = append(outO, int32(oi))
				outI = append(outI, candI[k])
				k++
				had = true
			}
			if !had {
				outO = append(outO, int32(oi))
				outI = append(outI, nullRow)
			}
		}
		scr.outO, scr.outI = outO, outI
		pairO, pairI = outO, outI
	}
	probeWall := time.Since(probeStart)

	emitStart := time.Now()
	np := len(pairO)
	out := scr.ensureOut(sh.outRels, np)
	w := sh.wiring
	for c := range out.cols {
		dst := out.cols[c]
		if w.fromOuter[c] {
			src := in.rows.cols[w.srcPos[c]]
			for k, oi := range pairO {
				dst[k] = src[oi]
			}
		} else {
			src := ht.inner.cols[w.srcPos[c]]
			for k, ii := range pairI {
				if ii < 0 {
					dst[k] = nullRow
				} else {
					dst[k] = src[ii]
				}
			}
		}
	}
	scr.outBatch = Batch{rows: out}
	sh.stats.observePhases(gatherWall, probeWall, time.Since(emitStart))
	return &scr.outBatch
}

// filterExtras is the vectorized post-filter for extra (non-hash equality)
// join conditions: one column loop per condition compacts the match-pair
// vectors in place, preserving order.
func (sh *probeShared) filterExtras(ht *hashTable, outerIDs [][]int32, candO, candI []int32) ([]int32, []int32) {
	for e := 1; e < len(sh.outerVals); e++ {
		ov, ids, iv := sh.outerVals[e], outerIDs[e], ht.innerExtras[e-1]
		w := 0
		for k := range candO {
			if ov[ids[candO[k]]] == iv[candI[k]] {
				candO[w], candI[w] = candO[k], candI[k]
				w++
			}
		}
		candO, candI = candO[:w], candI[:w]
	}
	return candO, candI
}

// sweepBatch is the second half of a mirrored join: it emits up to one
// morsel of the build rows at or after position at that the join type keeps
// — the marked ones of a semi join, the unmarked ones of an anti or left
// join — with nulls in the probe side's columns, and returns the position
// to resume from. The batch is scr-backed scratch, like probeBatch's.
func (sh *probeShared) sweepBatch(ht *hashTable, marks buildMarks, at int, scr *probeScratch) (*Batch, int) {
	wantMarked := sh.j.JoinType == query.Semi
	sel := scr.candI[:0]
	n := ht.inner.Len()
	for ; at < n && len(sel) < DefaultMorselSize; at++ {
		if marks.has(int32(at)) == wantMarked {
			sel = append(sel, int32(at))
		}
	}
	scr.candI = sel
	out := scr.ensureOut(sh.outRels, len(sel))
	w := sh.wiring
	for c, dst := range out.cols {
		if w.fromOuter[c] {
			for k := range dst {
				dst[k] = nullRow
			}
			continue
		}
		src := ht.inner.cols[w.srcPos[c]]
		for k, ii := range sel {
			dst[k] = src[ii]
		}
	}
	scr.outBatch = Batch{rows: out}
	return &scr.outBatch, at
}

func (o *probeOp) NextBatch() (*Batch, error) {
	if o.gw != nil {
		return o.graceNext()
	}
	sh := o.sh
	for {
		// Morsel-boundary stop/yield discipline, as in the scan sources: a
		// highly selective probe can spin through many empty-output batches,
		// so each iteration honors the run-wide stop flag and offers the
		// worker slot back to the scheduler before claiming more input.
		if o.ex != nil && o.ex.stop.Load() {
			return nil, nil
		}
		var in *Batch
		if o.sweepAt < 0 {
			var err error
			if in, err = o.child.NextBatch(); err != nil {
				return nil, err
			}
			if in == nil {
				// A mirrored join owes its build rows once every worker's
				// input is exhausted; the last worker to get here emits
				// them. A source cut short by the stop flag also returns
				// nil: a cancelled run never sweeps.
				if o.marks == nil || (o.ex != nil && o.ex.stop.Load()) {
					return nil, nil
				}
				last := sh.retire(o.marks)
				o.marks = nil
				if !last {
					return nil, nil
				}
				o.sweepAt = 0
			}
		}
		start := time.Now()
		var out *Batch
		rowsIn := 0
		if in != nil {
			rowsIn = in.Len()
			out = sh.probeBatch(sh.ht, in, &o.scr, o.marks)
		} else if o.sweepAt < sh.ht.inner.Len() {
			out, o.sweepAt = sh.sweepBatch(sh.ht, sh.marks, o.sweepAt, &o.scr)
		} else {
			return nil, nil
		}
		sh.stats.observe(rowsIn, out.Len(), time.Since(start))
		if out.Len() > 0 {
			return out, nil
		}
		if o.ex != nil && !o.ex.maybeYield() {
			return nil, errSlotLost
		}
	}
}
