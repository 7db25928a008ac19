// Package exec is the SMP vectorized executor: it interprets physical plans
// over the columnar store using late materialization (intermediate results
// are tuples of base-table row ids), runs every join as a morsel-driven hash
// join with real Bloom filter builds and probes, and records per-node actual
// cardinalities so experiments can compare the planner's estimates against
// ground truth (the paper's MAE analysis).
package exec

import (
	"fmt"

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
// lower bound and avoid the append regrowth. The columns share one
// allocation; a column appended past its capacity moves out on its own.
func NewRowSetCap(rels query.RelSet, capacity int) *RowSet {
	rs := NewRowSet(rels)
	buf := make([]int32, len(rs.cols)*capacity)
	for i := range rs.cols {
		rs.cols[i] = buf[i*capacity : i*capacity : (i+1)*capacity]
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

// concat merges parts (all covering the same relations) into one row set;
// a nil part is a worker that got no batch. When exactly one part holds
// rows — the common case at low DOP and for small build sides — that part
// is returned directly instead of copied.
func concat(rels query.RelSet, parts []*RowSet) *RowSet {
	if lone := loneLivePart(parts); lone != nil {
		return lone
	}
	out := NewRowSet(rels)
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Len()
		}
	}
	for pos := range out.cols {
		col := make([]int32, 0, total)
		for _, p := range parts {
			if p != nil {
				col = append(col, p.cols[pos]...)
			}
		}
		out.cols[pos] = col
	}
	return out
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
