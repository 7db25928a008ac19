package exec

import (
	"sync"
	"sync/atomic"

	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// This file is the executor-side glue over internal/spill: sizing
// estimates the memory broker accounts in, the row-set <-> chunk
// conversions (the spill format stores exactly the row-id columns of a
// RowSet, in ascending relation order), partition routing by key hash, and
// the per-pipeline spill counters that flow into PipelineStat and EXPLAIN
// ANALYZE.

const (
	// spillChunkRows is the target rows per spill chunk: big enough for
	// sequential I/O, small enough that read-back buffers stay cache-sized.
	spillChunkRows = 4096
	// graceMaxDepth caps grace-join repartition recursion; at the cap a
	// partition is force-loaded (heavy key skew cannot be split by hashing).
	graceMaxDepth = 6
	// graceMinPartRows is the smallest partition worth repartitioning:
	// below this the fixed cost of another spill pass exceeds any gain.
	graceMinPartRows = 4096
	// graceSubParts is the fan-out of one recursive repartition step.
	graceSubParts = 8
	// hashEntryBytes is the per-row grant asked for a join hash table
	// before it is built. It under-estimates the flat directory: the slot
	// array is the power of two at or above twice the rows, 17 B a slot,
	// so 34–68 B a row, plus 4 B of payload and 8 B of gathered key. The
	// finish then Forces the difference (ROADMAP item 8).
	hashEntryBytes = 32
)

// rowSetBytes is the broker-visible footprint of rows×cols int32 cells.
func rowSetBytes(rows, cols int) int64 { return int64(rows) * int64(cols) * 4 }

// batchBytes is rowSetBytes for one row set.
func batchBytes(b *RowSet) int64 { return rowSetBytes(b.Len(), len(b.cols)) }

// spillHash mixes a join key with the grace-recursion level so every level
// partitions on independent bits (splitmix64 finalizer); level 0 must also
// stay independent of hashtab.Hash (a splitmix stream at a different
// additive offset), which routes rows inside the in-memory hash table and
// its flat directory.
func spillHash(k int64, level int) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15*uint64(level+2)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// spillPartitionCount sizes a grace join's partition fan-out from the
// planner's build-side estimate: enough partitions that each should fit
// the budget with room for the probe side, clamped to [8, 64].
func spillPartitionCount(estRows float64, cols int, budget int64) int {
	n := 8
	if budget > 0 {
		est := rowSetBytes(int(estRows), cols) + int64(estRows)*hashEntryBytes
		for n < 64 && est/int64(n) > budget/4 {
			n *= 2
		}
	}
	return n
}

// keyVecPool recycles the key-gather scratch of the grace build's router
// (graceHashJoin.routeBuild), its one user: routing runs on shared sink
// state across many workers and batches, so per-call allocation would
// dominate the route path's steady state.
var keyVecPool = sync.Pool{
	New: func() any {
		b := make([]int64, 0, spillChunkRows)
		return &b
	},
}

// spillCounters are one pipeline's shared spill tallies, updated by
// concurrent workers and snapshotted into PipelineStat.Spill.
type spillCounters struct {
	bytes     atomic.Int64
	bytesRead atomic.Int64
	parts     atomic.Int64
	depth     atomic.Int32
}

func (c *spillCounters) addBytes(n int64) {
	if n > 0 {
		c.bytes.Add(n)
	}
}

// addBytesRead accounts encoded bytes decoded back from spill files —
// callers report a reader's BytesRead once per file (or per drain), never
// per row.
func (c *spillCounters) addBytesRead(n int64) {
	if n > 0 {
		c.bytesRead.Add(n)
	}
}

func (c *spillCounters) addParts(n int64) { c.parts.Add(n) }

func (c *spillCounters) bumpDepth(d int) {
	for {
		cur := c.depth.Load()
		if int32(d) <= cur || c.depth.CompareAndSwap(cur, int32(d)) {
			return
		}
	}
}

func (c *spillCounters) snapshot() SpillStat {
	return SpillStat{
		Bytes:      c.bytes.Load(),
		BytesRead:  c.bytesRead.Load(),
		Partitions: int(c.parts.Load()),
		Depth:      int(c.depth.Load()),
	}
}

// spillFiles lazily creates the run's spill directory — scoped to the
// scheduler query ID, so concurrent spilling queries own disjoint
// subdirectories — and the executor removes it unconditionally when the
// run ends (success, error, or cancel).
func (ex *executor) spillFiles() (*spill.Dir, error) {
	ex.spillMu.Lock()
	defer ex.spillMu.Unlock()
	if ex.spillDir == nil {
		d, err := spill.NewDirScoped(ex.spillParent, ex.queryTag)
		if err != nil {
			return nil, err
		}
		ex.spillDir = d
	}
	return ex.spillDir, nil
}

func (ex *executor) cleanupSpill() {
	ex.spillMu.Lock()
	d := ex.spillDir
	ex.spillMu.Unlock()
	if d != nil {
		d.Cleanup()
	}
}

// eachChunk streams a finished spill file's chunks to fn in file order,
// accounting the decoded bytes to rec and closing the reader however the
// pass ends.
func eachChunk(w *spill.Writer, rec *spillCounters, fn func(cols [][]int32) error) error {
	r, err := w.Reader()
	if err != nil {
		return err
	}
	defer func() {
		rec.addBytesRead(r.BytesRead())
		r.Close()
	}()
	for {
		cols, err := r.Next()
		if err != nil || cols == nil {
			return err
		}
		if err := fn(cols); err != nil {
			return err
		}
	}
}

// readSpill materializes a whole spill file as one row set covering rels.
func readSpill(w *spill.Writer, rels query.RelSet, rec *spillCounters) (*RowSet, error) {
	rs := NewRowSetCap(rels, int(w.Rows()))
	err := eachChunk(w, rec, func(cols [][]int32) error {
		for c := range rs.cols {
			rs.cols[c] = append(rs.cols[c], cols[c]...)
		}
		return nil
	})
	return rs, err
}

// routeCols routes the rows of one chunk into per-partition writers by
// key hash at the given level. keys is aligned with the chunk rows.
// Returns the encoded bytes written.
func routeCols(cols [][]int32, keys []int64, level int, ws []*spill.Writer) (int64, error) {
	nparts := len(ws)
	n := len(keys)
	groups := make([][]int32, nparts) // partition -> row indices within cols
	for i := 0; i < n; i++ {
		p := int(spillHash(keys[i], level) % uint64(nparts))
		groups[p] = append(groups[p], int32(i))
	}
	var written int64
	out := make([][]int32, len(cols))
	for p, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		for c := range cols {
			col := make([]int32, len(idxs))
			for j, i := range idxs {
				col[j] = cols[c][i]
			}
			out[c] = col
		}
		if err := ws[p].AppendChunk(out); err != nil {
			return written, err
		}
		written += int64(4 + 4*len(idxs)*len(cols))
	}
	return written, nil
}

// partitionWriters creates one spill writer per partition.
func partitionWriters(d *spill.Dir, name string, nparts, cols int) ([]*spill.Writer, error) {
	ws := make([]*spill.Writer, nparts)
	for p := range ws {
		w, err := d.NewWriter(name, cols)
		if err != nil {
			return nil, err
		}
		ws[p] = w
	}
	return ws, nil
}

// onceErr latches the first error of a concurrent spill path.
type onceErr struct {
	mu  sync.Mutex
	err error
}

func (o *onceErr) set(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceErr) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
