// Package exec is the SMP vectorized executor: it interprets physical plans
// over the columnar store using late materialization (intermediate results
// are tuples of base-table row ids), runs hash joins under the §3.9
// streaming strategies with real Bloom filter builds and probes, and records
// per-node actual cardinalities so experiments can compare the planner's
// estimates against ground truth (the paper's MAE analysis).
package exec

import (
	"fmt"
	"sync/atomic"

	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// nullRow fills the columns of a join side a result row has no row from:
// the nullable side of an unmatched left-outer row, and the subquery side of
// every semi and anti join row.
const nullRow int32 = -1

// RowSet is an intermediate result: for each relation it covers, a parallel
// slice of base-table row ids. All slices have equal length (the row count).
// Columns are ordered by ascending relation index; a relation's column
// position is its rank within the bitset (one popcount), so constructing a
// row set per morsel allocates no lookup structure.
type RowSet struct {
	rels query.RelSet
	cols [][]int32
}

// NewRowSet creates an empty row set covering rels.
func NewRowSet(rels query.RelSet) *RowSet {
	return &RowSet{
		rels: rels,
		cols: make([][]int32, rels.Count()),
	}
}

// NewRowSetCap creates an empty row set covering rels with every column
// pre-sized to the given capacity — joins and batch producers know a good
// lower bound and avoid the append regrowth.
func NewRowSetCap(rels query.RelSet, capacity int) *RowSet {
	rs := NewRowSet(rels)
	for i := range rs.cols {
		rs.cols[i] = make([]int32, 0, capacity)
	}
	return rs
}

// Len reports the number of rows.
func (rs *RowSet) Len() int {
	if len(rs.cols) == 0 {
		return 0
	}
	return len(rs.cols[0])
}

// Col returns the row-id column for a relation; it panics on a relation the
// set does not cover (a planner bug, not a data condition).
func (rs *RowSet) Col(rel int) []int32 {
	if !rs.rels.Has(rel) {
		panic(fmt.Sprintf("exec: row set %s has no relation %d", rs.rels, rel))
	}
	return rs.cols[rs.rels.Rank(rel)]
}

// colWiring precomputes the output-column routing of one join shape:
// for every output column, the source side and source column position.
// Join emit loops run once per output row — the engine's highest-volume
// copy path — so the routing is resolved once per operator instead of
// per row through relPos map iterations and Col lookups.
type colWiring struct {
	fromOuter []bool
	srcPos    []int32
}

// newColWiring wires an output relation set to its join inputs. Column
// positions follow RelSet.Members() order, matching NewRowSet's layout.
func newColWiring(out, outer, inner query.RelSet) *colWiring {
	members := out.Members()
	w := &colWiring{
		fromOuter: make([]bool, len(members)),
		srcPos:    make([]int32, len(members)),
	}
	for c, rel := range members {
		switch {
		case outer.Has(rel):
			w.fromOuter[c] = true
			w.srcPos[c] = int32(outer.Rank(rel))
		case inner.Has(rel):
			w.srcPos[c] = int32(inner.Rank(rel))
		default:
			panic(fmt.Sprintf("exec: relation %d in neither join input", rel))
		}
	}
	return w
}

// appendJoined copies row oi of outer combined with row ii of inner through
// the precomputed wiring; a negative index null-extends that side.
func (rs *RowSet) appendJoined(w *colWiring, outer *RowSet, oi int, inner *RowSet, ii int) {
	for c := range rs.cols {
		v := nullRow
		switch {
		case w.fromOuter[c]:
			if oi >= 0 {
				v = outer.cols[w.srcPos[c]][oi]
			}
		case ii >= 0:
			v = inner.cols[w.srcPos[c]][ii]
		}
		rs.cols[c] = append(rs.cols[c], v)
	}
}

// appendBatch appends all rows of b (same relation coverage). Sinks use it
// to fold a worker's batches into its private part.
func (rs *RowSet) appendBatch(b *RowSet) {
	for c := range rs.cols {
		rs.cols[c] = append(rs.cols[c], b.cols[c]...)
	}
}

// concat merges parts (all covering the same relations) into one row set.
// When exactly one part holds rows — the common case at low DOP and for
// small build sides — that part is returned directly instead of copied.
func concat(rels query.RelSet, parts []*RowSet) *RowSet {
	if lone := loneLivePart(parts); lone != nil {
		return lone
	}
	out := NewRowSet(rels)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	for pos := range out.cols {
		col := make([]int32, 0, total)
		for _, p := range parts {
			col = append(col, p.cols[pos]...)
		}
		out.cols[pos] = col
	}
	return out
}

// parallelFinishThreshold is the cost model behind every breaker's
// serial-vs-parallel finish decision, replacing the old hardcoded
// 4096-row cutoffs. rows×cols approximates the phase's work in 4-byte
// cell units (cols is the column count for copies/gathers, or a weight
// for heavier per-row work like hashing or map inserts); fanning out
// costs roughly one goroutine spawn+join per worker, worth ~2048 cells
// each. Parallel pays off once the total work amortizes that overhead
// across the dop workers the phase would start.
func parallelFinishThreshold(rows, cols, dop int) bool {
	const spawnCells = 2048
	if dop < 2 {
		return false
	}
	return rows*cols >= dop*spawnCells
}

// loneLivePart returns the single part holding rows, or nil when zero or
// several do (callers then need a real merge; zero live parts must still
// produce a fresh empty set covering the requested relations).
func loneLivePart(parts []*RowSet) *RowSet {
	var live *RowSet
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			continue
		}
		if live != nil {
			return nil
		}
		live = p
	}
	return live
}

// concatPar merges parts into one row set, copying every (relation, part)
// column slice concurrently under the given parallelism. It is the breaker
// sinks' merge phase: unlike the sequential concat it copies each part
// directly into its final offset, so there is no intermediate grown buffer
// and the copies proceed in parallel.
func concatPar(rels query.RelSet, parts []*RowSet, dop int) *RowSet {
	if lone := loneLivePart(parts); lone != nil {
		return lone
	}
	live, offs := partOffsets(parts)
	total := 0
	for _, p := range live {
		total += p.Len()
	}
	if !parallelFinishThreshold(total, rels.Count(), dop) {
		return concat(rels, live)
	}
	out := NewRowSet(rels)
	for pos := range out.cols {
		out.cols[pos] = make([]int32, total)
	}
	// One copy task per (column, part), numbered column-major; at most dop
	// copiers pull them from a shared cursor, so no more than dop copies
	// are ever in flight.
	ntasks := len(out.cols) * len(live)
	var next atomic.Int64
	parallelFor(min(dop, ntasks), func(int) {
		for t := int(next.Add(1)) - 1; t < ntasks; t = int(next.Add(1)) - 1 {
			pos, i := t/len(live), t%len(live)
			copy(out.cols[pos][offs[i]:], live[i].cols[pos])
		}
	})
	return out
}

// partOffsets returns the starting row of each live part in their
// concatenation, parallel to the returned live slice.
func partOffsets(parts []*RowSet) (live []*RowSet, offs []int) {
	total := 0
	for _, p := range parts {
		if p == nil || p.Len() == 0 {
			continue
		}
		live = append(live, p)
		offs = append(offs, total)
		total += p.Len()
	}
	return live, offs
}

// keyColumn materializes the int64 join-key values of rel.col for every row.
func keyColumn(rs *RowSet, tbl *storage.Table, rel int, col string) []int64 {
	ids := rs.Col(rel)
	vals := tbl.MustColumn(col).Ints
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	return out
}

// keyColumnPar is keyColumn with the gather split across dop goroutines —
// the breaker sinks materialize keys for millions of rows in their finish
// phase, where this gather would otherwise be serial tail time.
func keyColumnPar(rs *RowSet, tbl *storage.Table, rel int, col string, dop int) []int64 {
	ids := rs.Col(rel)
	n := len(ids)
	// Weight 2: the gather reads 4-byte ids but writes 8-byte keys.
	if !parallelFinishThreshold(n, 2, dop) {
		return keyColumn(rs, tbl, rel, col)
	}
	vals := tbl.MustColumn(col).Ints
	out := make([]int64, n)
	parallelFor(dop, func(c int) {
		for i, hi := c*n/dop, (c+1)*n/dop; i < hi; i++ {
			out[i] = vals[ids[i]]
		}
	})
	return out
}
