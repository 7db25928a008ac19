package exec

import (
	"sync/atomic"

	"bfcbo/internal/mem"
	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// This file is the executor-side glue over internal/spill: the sizing
// estimates the memory broker accounts in (a spill file stores exactly the
// row-id columns of a RowSet, in ascending relation order, so a spilled
// row costs the same bytes on disk as in memory), the router — the one way
// a row reaches a partition file — the block readers, and the per-pipeline
// spill counters that flow into PipelineStat and EXPLAIN ANALYZE.

const (
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
	// array is the power of two at or above twice the rows, 16 B a slot,
	// so 32–64 B a row, plus 4 B of payload for each row of a repeated key
	// and 8 B of gathered key. The finish then Forces the difference
	// (ROADMAP item 8).
	hashEntryBytes = 32
)

// rowSetBytes is the broker-visible footprint of rows×cols int32 cells.
func rowSetBytes(rows, cols int) int64 { return int64(rows) * int64(cols) * 4 }

// batchBytes is rowSetBytes for one row set.
func batchBytes(b *RowSet) int64 { return rowSetBytes(b.Len(), len(b.cols)) }

// buildGrant is the grant asked for before a hash table over rows×cols is
// built: the row set plus hashEntryBytes a row for the directory.
func buildGrant(rows, cols int) int64 {
	return rowSetBytes(rows, cols) + int64(rows)*hashEntryBytes
}

// settle replaces est granted bytes with the exact figure once it is
// known, forcing the overage or releasing the slack, and returns exact.
func settle(res *mem.Reservation, est, exact int64) int64 {
	if exact > est {
		res.Force(exact - est)
	} else {
		res.Release(est - exact)
	}
	return exact
}

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
		est := buildGrant(int(estRows), cols)
		for n < 64 && est/int64(n) > budget/4 {
			n *= 2
		}
	}
	return n
}

// router is the one way a row reaches a partition file. It routes rows
// into one graceSide's partitions by spillHash at one level, at most
// spill.ReadRows rows at a time: it groups them by partition in its
// scratch, keeping their input order, and appends each partition's share
// to its file in one write. So it keeps no row between calls, and what a
// side writes is a function of its rows alone. A router belongs to one
// goroutine at a time, and its scratch is reused across calls, so routing
// allocates nothing once the scratch exists.
type router struct {
	side  *graceSide
	level int
	part  []uint32  // each row's partition
	at    []int     // by partition, where its share starts in cols
	cols  [][]int32 // the rows, grouped by partition
	share [][]int32 // one partition's share of cols
}

// newRouters returns n level-0 routers into side, one per worker.
func newRouters(side *graceSide, n int) []router {
	rs := make([]router, n)
	for i := range rs {
		rs[i].side = side
	}
	return rs
}

// route writes the rows of cols, laid out as the side's spill files, to
// their partitions.
func (r *router) route(cols [][]int32) error {
	s := r.side
	nparts := len(s.parts)
	if r.cols == nil {
		r.part, r.at = make([]uint32, spill.ReadRows), make([]int, nparts)
		r.cols, r.share = make([][]int32, len(cols)), make([][]int32, len(cols))
		for c := range r.cols {
			r.cols[c] = make([]int32, spill.ReadRows)
		}
	}
	for lo := 0; lo < len(cols[0]); lo += spill.ReadRows {
		hi := min(lo+spill.ReadRows, len(cols[0]))
		// A counting sort: count each partition's rows, turn the counts
		// into end offsets, then place the rows last to first.
		clear(r.at)
		for i, id := range cols[s.keyPos][lo:hi] {
			p := uint32(spillHash(s.keyVals[id], r.level) % uint64(nparts))
			r.part[i] = p
			r.at[p]++
		}
		for p := 1; p < nparts; p++ {
			r.at[p] += r.at[p-1]
		}
		for i := hi - lo - 1; i >= 0; i-- {
			p := r.part[i]
			r.at[p]--
			for c, col := range cols {
				r.cols[c][r.at[p]] = col[lo+i]
			}
		}
		for p, from := range r.at {
			to := hi - lo
			if p+1 < nparts {
				to = r.at[p+1]
			}
			if from == to {
				continue
			}
			for c := range r.cols {
				r.share[c] = r.cols[c][from:to]
			}
			if err := s.parts[p].Append(r.share); err != nil {
				return err
			}
			s.rec.wrote(s.kind, int64(to-from), rowSetBytes(to-from, len(cols)))
		}
	}
	return nil
}

// spillCounters are one pipeline's shared spill tallies, updated by
// concurrent workers and snapshotted into PipelineStat.Spill.
type spillCounters struct {
	bytes     atomic.Int64
	bytesRead atomic.Int64
	rows      [2]struct{ written, read atomic.Int64 } // by sideKind
	parts     atomic.Int64
	depth     atomic.Int32
}

// sideKind says which side of a spilled join a spill file holds.
type sideKind int

const (
	buildSide sideKind = iota
	probeSide
)

// wrote accounts rows written to a side's spill file.
func (c *spillCounters) wrote(side sideKind, rows, bytes int64) {
	c.rows[side].written.Add(rows)
	c.bytes.Add(bytes)
}

// readBack accounts what a reader of a side's spill file decoded —
// callers report it once per file (or per drain), never per row.
func (c *spillCounters) readBack(side sideKind, r *spill.Reader) {
	c.rows[side].read.Add(r.RowsRead())
	c.bytesRead.Add(r.BytesRead())
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
		Bytes:            c.bytes.Load(),
		BytesRead:        c.bytesRead.Load(),
		BuildRowsWritten: c.rows[buildSide].written.Load(),
		ProbeRowsWritten: c.rows[probeSide].written.Load(),
		BuildRowsRead:    c.rows[buildSide].read.Load(),
		ProbeRowsRead:    c.rows[probeSide].read.Load(),
		Partitions:       int(c.parts.Load()),
		Depth:            int(c.depth.Load()),
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

// eachBlock streams a finished spill file of one side to fn in file
// order, at most spill.ReadRows rows a call, accounting what it decoded to
// rec and closing the reader however the pass ends.
func eachBlock(w *spill.Writer, rec *spillCounters, side sideKind, fn func(cols [][]int32) error) error {
	r, err := w.Reader()
	if err != nil {
		return err
	}
	defer func() {
		rec.readBack(side, r)
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

// readSpill materializes a whole build-side spill file as one row set
// covering rels.
func readSpill(w *spill.Writer, rels query.RelSet, rec *spillCounters) (*RowSet, error) {
	rs := NewRowSetCap(rels, int(w.Rows()))
	err := eachBlock(w, rec, buildSide, func(cols [][]int32) error {
		for c := range rs.cols {
			rs.cols[c] = append(rs.cols[c], cols[c]...)
		}
		return nil
	})
	return rs, err
}
