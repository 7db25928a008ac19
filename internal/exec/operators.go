package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/hashtab"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// ---------------------------------------------------------------------------
// Scan source: workers pull morsels of base-table rows from a shared atomic
// cursor, run each through the scan's kernel chain (its predicates, then its
// Bloom filters), and emit batches of qualifying row ids, each filled to a
// morsel's worth of rows. This is the morsel-driven entry point of a
// pipeline.

// scanSource is the shared state of a scan pipeline source. The predicate
// is compiled once into kernels bound to the table's column slices, in the
// order every worker evaluates them; each Bloom filter the scan applies
// follows as one more kernel (query.Filter), in plan order. Workers share
// the immutable kernels and keep private chains that count their rows.
// All runtime counters are folded from per-worker locals at operator Close.
type scanSource struct {
	s       *plan.Scan
	kernels []query.Kernel // the predicates, then the filters
	preds   int            // kernels[:preds] are the predicates
	blooms  []*BloomRuntime
	n       int
	morsel  int
	cursor  atomic.Int64
	stats   *opStats
	// stop is the run-wide cancellation flag: once set (first worker
	// error), the source hands out no further morsels, so sibling workers
	// and concurrently scheduled pipelines wind down promptly instead of
	// draining the table.
	stop *atomic.Bool

	in, out []atomic.Int64 // one pair per kernel, evaluation order
}

func (ex *executor) newScanSource(s *plan.Scan, stats *opStats) (*scanSource, error) {
	tbl := ex.tables[s.Rel]
	kernels, err := query.Compile(s.Pred, tbl)
	if err != nil {
		return nil, fmt.Errorf("exec: scan of %s: %w", s.Alias, err)
	}
	probes, err := ex.blooms.probesFor(s)
	if err != nil {
		return nil, err
	}
	src := &scanSource{
		s: s, kernels: kernels, preds: len(kernels),
		n: tbl.NumRows(), morsel: ex.morsel, stats: stats,
		stop: &ex.stop,
	}
	for _, p := range probes {
		// A filter's counts land in its BloomRuntime, so its label is unread.
		src.kernels = append(src.kernels, query.Filter(p.h, p.vals, "bloom"))
		src.blooms = append(src.blooms, p.st)
	}
	src.in, src.out = make([]atomic.Int64, len(src.kernels)), make([]atomic.Int64, len(src.kernels))
	return src, nil
}

// runtime snapshots the scan's execution counters and adds its filters'
// rows in and out to their BloomRuntime records; called once, after the
// pipeline's workers folded their locals at Close. Each batch the scan
// hands out folds the morsels it claimed as its batch count (a batch may
// span morsels), so the scan's batch count is the morsel count.
func (src *scanSource) runtime() ScanRuntime {
	rt := ScanRuntime{
		Rel: src.s.Rel, Alias: src.s.Alias,
		Morsels: src.stats.batches.Load(),
	}
	for i, k := range src.kernels[:src.preds] {
		rt.Preds = append(rt.Preds, query.PredCount{
			Pred: k.Label(), In: src.in[i].Load(), Out: src.out[i].Load(),
		})
	}
	for i, st := range src.blooms {
		st.Tested += src.in[src.preds+i].Load()
		st.Passed += src.out[src.preds+i].Load()
	}
	return rt
}

// scanOp is the per-worker operator over a shared scanSource. All scratch —
// the selection vector, the kernel chain's counters (empty when the scan
// has neither a predicate nor a filter) and the output row set — is per
// worker, allocated once in Open; the steady-state batch loop allocates
// nothing. The selection vector holds two morsels: a fill claims a morsel
// only while it holds fewer rows than one. The chain's counters fold into
// the source's atomics once per worker at Close (workers close before the
// pipeline joins them, so the fold always precedes runtime).
type scanOp struct {
	src   *scanSource
	chain *query.Chain
	sel   []int32
	out   *RowSet // one column, the surviving prefix of sel
}

func (o *scanOp) Open() error {
	src := o.src
	o.chain = query.NewChain(src.kernels)
	o.sel = make([]int32, 2*src.morsel)
	o.out = NewRowSet(query.NewRelSet(src.s.Rel))
	return nil
}

func (o *scanOp) Close() error {
	src := o.src
	for i, c := range o.chain.Counts() {
		src.in[i].Add(c.In)
		src.out[i].Add(c.Out)
	}
	return nil
}

// NextBatch fills one batch: it keeps claiming morsels until the
// selection vector holds at least a morsel's worth of rows or the table
// ends, so every operator above a selective scan pays its per-batch cost
// for a full vector rather than for the few rows one morsel keeps. Each
// morsel goes through the kernel chain in one call (query.Chain.EvalRange):
// the chain's first member reads the morsel's dense rows [lo, hi) and
// writes only the ids it keeps into the vector's tail, and the members
// after it, the rest of the predicates and then the Bloom filters, compact
// those in place. This is the only way a scan drops rows. The stop check
// stays per morsel, before each claim; the clock and the shared counters
// are read once per batch: one fold adds the morsels the batch claimed,
// their rows and the rows they kept, also when a stop cuts the batch short
// (a stopped fill returns nil), so every total is what one observation per
// morsel would sum to. Row ids are global, so a batch may span morsels;
// its one column is the kept prefix of the worker's selection vector, and
// nothing is copied.
func (o *scanOp) NextBatch() (*RowSet, error) {
	src := o.src
	start := time.Now()
	n, morsels, rows := 0, 0, 0
	stopped := false
	for n < src.morsel {
		if src.stop != nil && src.stop.Load() {
			stopped = true
			break
		}
		lo := int(src.cursor.Add(int64(src.morsel))) - src.morsel
		if lo >= src.n {
			break
		}
		hi := min(lo+src.morsel, src.n)
		n += len(o.chain.EvalRange(lo, o.sel[n:n+hi-lo]))
		morsels++
		rows += hi - lo
	}
	if morsels > 0 {
		src.stats.fold(morsels, rows, n, time.Since(start))
	}
	if stopped || n == 0 {
		return nil, nil
	}
	o.out.cols[0] = o.sel[:n]
	return o.out, nil
}

// ---------------------------------------------------------------------------
// Hash-join probe: batches stream against a shared, read-only hash table
// built by the join's build pipeline.

// hashTable is the shared result of a hash-build sink: the materialized
// build side, the gathered key columns, and the probe structure — one flat
// unchained hashtab.JoinTable over every build row, whose 16-byte slots
// hold a one-row key's build row inline, so a build on a unique key has no
// payload and a probe hit reads one slot.
type hashTable struct {
	inner       *RowSet
	innerKeys   []int64
	innerExtras [][]int64
	tab         *hashtab.JoinTable
}

// bytes is the built table's footprint: the directory and payload plus the
// gathered key and extra-condition columns, one int64 per build row each.
func (ht *hashTable) bytes() int64 {
	return ht.tab.Bytes() + 8*int64(len(ht.innerKeys))*int64(1+len(ht.innerExtras))
}

// buildMarks is a mirrored join's match bitmap, one bit per build row. Each
// probe worker sets bits in a bitmap of its own, so the probe loop needs no
// atomics; the bitmaps meet once, when a worker retires (probeShared.retire)
// — or never, in a grace drain, where a partition pair belongs to one worker.
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

// probeShared is the per-pipeline state of one hash-probe operator. When
// the build side spilled, ht is nil: the pipeline's route sink and drain
// use the rest, and each drained pair brings its own table.
type probeShared struct {
	j       *plan.Join
	ht      *hashTable
	outRels query.RelSet
	wiring  *colWiring
	// outerVals[e] maps a base-table row id of the outer key relation to
	// its key value; e=0 is the hash condition, the rest verify extras.
	outerVals [][]int64
	outerRels []int
	stats     *opStats
	morsel    int // rows per sweep batch: the executor's morsel size

	// Mirrored joins over an in-memory table (j.BuildPreserved, ht != nil):
	// probing counts the workers whose input is not yet exhausted, marks is
	// the union of the retired workers' bitmaps, and the worker that brings
	// probing to zero sweeps the build rows.
	probing atomic.Int32
	mu      sync.Mutex
	marks   buildMarks
}

func (ex *executor) newProbeShared(j *plan.Join, ht *hashTable,
	inRels query.RelSet, stats *opStats, workers int) (*probeShared, error) {
	sh := &probeShared{
		j: j, ht: ht,
		outRels: inRels.Union(j.Inner.Rels()),
		stats:   stats,
		morsel:  ex.morsel,
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
	if ht != nil && j.BuildPreserved {
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
// Reusing the output is PhysicalOperator's ownership rule: a consumer
// copies what it keeps before the worker's next NextBatch on this operator.
type probeScratch struct {
	outerIDs [][]int32
	keys     []int64
	hashes   []uint64
	// candO/candI are the match-pair vectors of the probe phase; outO/outI
	// hold the gap walk's output of a left or anti join.
	candO, candI []int32
	outO, outI   []int32
	out          *RowSet
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

// probeOp streams batches from child through the hash table.
type probeOp struct {
	sh    *probeShared
	ex    *executor
	child PhysicalOperator
	scr   probeScratch

	// Mirrored join, in-memory table: this worker's marks (nil once it has
	// retired them) and — for the one worker that sweeps — the next build
	// row to look at (-1: not sweeping).
	marks   buildMarks
	sweepAt int
}

func (o *probeOp) Open() error {
	o.sweepAt = -1
	if o.sh.j.BuildPreserved {
		o.marks = newBuildMarks(o.sh.ht.inner.Len())
	}
	return o.child.Open()
}

func (o *probeOp) Close() error { return o.child.Close() }

// probeBatch is the probe kernel: it joins one input batch against ht and
// returns the output batch. It is shared by the streaming NextBatch path
// and the grace drain, which probes reloaded partition blocks through the
// same code so every join type and extra condition behaves identically.
// The returned row set is scr-backed scratch, valid until the next call.
//
// The kernel runs in three phases. Gather: resolve the per-condition
// outer row-id columns once, gather the key column through them into
// scratch, and hash the whole vector once via HashVec. Probe: one
// JoinTable.Probe call, the same for every join type and orientation,
// collects the match pairs (outer batch position, build row id) in
// ascending outer position — branch-free over a table in which no key
// repeats, one run copy a hit otherwise;
// filterExtras drops the pairs that fail an extra non-hash condition; one
// short pass per form then turns the surviving pairs into output pairs:
// inner keeps them, semi keeps each outer row's first with the unit null,
// left keeps them and null-extends the outer rows with none, anti keeps
// only those null extensions. Emit: bulk per-column gathers driven by the
// output pairs materialize the output columns through the precomputed
// wiring. Output row order is ascending outer position, ascending build row
// id within a key (the payload order).
//
// A mirrored join (sh.j.BuildPreserved) probes with the unit's rows and
// marks every surviving pair's build row in marks, the caller's bitmap over
// ht's build rows: its semi and anti forms emit nothing here, its left form
// the surviving pairs; sweepBatch emits the build rows afterwards.
func (sh *probeShared) probeBatch(ht *hashTable, in *RowSet, scr *probeScratch, marks buildMarks) *RowSet {
	n := in.Len()
	gatherStart := time.Now()
	if cap(scr.outerIDs) < len(sh.outerRels) {
		scr.outerIDs = make([][]int32, len(sh.outerRels))
	}
	outerIDs := scr.outerIDs[:len(sh.outerRels)]
	for e, rel := range sh.outerRels {
		outerIDs[e] = in.Col(rel)
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
	candO, candI := ht.tab.Probe(keys, hs, scr.candO[:0], scr.candI[:0])
	if len(sh.outerVals) > 1 {
		candO, candI = sh.filterExtras(ht, outerIDs, candO, candI)
	}
	scr.candO, scr.candI = candO, candI // keep grown backing arrays
	pairO, pairI := candO, candI
	switch jt := sh.j.JoinType; {
	case sh.j.BuildPreserved:
		// Every build row with a verified match gets its mark; only the
		// left form emits the matched pairs here.
		for _, ii := range candI {
			marks.set(ii)
		}
		if jt != query.Left {
			pairO, pairI = candO[:0], candI[:0]
		}
	case jt == query.Semi:
		// One output row per outer row with a surviving pair (candO is
		// ascending); the unit's columns are null, as after an anti join.
		w, last := 0, int32(-1)
		for _, oi := range candO {
			if oi != last {
				candO[w], candI[w] = oi, nullRow
				w, last = w+1, oi
			}
		}
		pairO, pairI = candO[:w], candI[:w]
	case jt == query.Left, jt == query.Anti:
		// Gap walk: candO is ascending, so one merge emits every surviving
		// pair (left only) and null-extends the outer rows with none.
		keep := jt == query.Left
		outO, outI := scr.outO[:0], scr.outI[:0]
		k := 0
		for oi := int32(0); oi < int32(n); oi++ {
			run := k
			for k < len(candO) && candO[k] == oi {
				k++
			}
			if k == run {
				outO = append(outO, oi)
				outI = append(outI, nullRow)
			} else if keep {
				outO = append(outO, candO[run:k]...)
				outI = append(outI, candI[run:k]...)
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
			src := in.cols[w.srcPos[c]]
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
	sh.stats.observePhases(gatherWall, probeWall, time.Since(emitStart))
	return out
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

// sweepBatch is the second half of a mirrored join: it emits up to a
// morsel's worth of the build rows at or after position at that the join
// type keeps — the marked ones of a semi join, the unmarked ones of an anti
// or left join — with nulls in the probe side's columns, and returns the
// position to resume from. The row set is scr-backed scratch, like
// probeBatch's.
func (sh *probeShared) sweepBatch(ht *hashTable, marks buildMarks, at int, scr *probeScratch) (*RowSet, int) {
	wantMarked := sh.j.JoinType == query.Semi
	sel := scr.candI[:0]
	n := ht.inner.Len()
	for ; at < n && len(sel) < sh.morsel; at++ {
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
	return out, at
}

func (o *probeOp) NextBatch() (*RowSet, error) {
	sh := o.sh
	for {
		// Morsel-boundary stop discipline, as in the scan sources: a highly
		// selective probe can spin through many empty-output batches, so
		// each iteration honors the run-wide stop flag before claiming more
		// input.
		if o.ex != nil && o.ex.stop.Load() {
			return nil, nil
		}
		var in *RowSet
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
		var out *RowSet
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
	}
}
