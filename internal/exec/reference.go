package exec

import (
	"context"
	"fmt"
	"math/bits"

	"bfcbo/internal/bloom"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// This file is the reference interpreter — the oracle the equivalence
// suites and the benchmark's answer check diff the engine against. It
// evaluates the plan tree operator at a time on the calling goroutine,
// materializing every intermediate row set, and touches none of the
// engine's machinery: no admission, worker slots, memory accounting,
// spilling, metrics or live introspection. A result is a function of
// (database, plan) and nothing else.

type reference struct {
	ctx    context.Context
	tables []*storage.Table
	blooms *bloomSet
	ops    []OpStat
}

// runReference evaluates p serially and returns its result with the output
// rows. Its filters go through bloomSet.build, so they are bit for bit the
// engine's and their tested/passed tallies stay comparable.
func runReference(ctx context.Context, db *storage.Database, block *query.Block, p *plan.Plan) (*Result, *RowSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tables, err := resolveTables(db, block)
	if err != nil {
		return nil, nil, err
	}
	r := &reference{ctx: ctx, tables: tables, blooms: newBloomSet(tables, p.Blooms)}
	out, err := r.node(p.Root)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Rows: out.Len(), OpStats: r.ops, BloomStats: r.blooms.stats(p.Blooms)}
	res.Work = foldWork(res)
	return res, out, nil
}

// node evaluates one plan node and records its rows in and out, labelled
// as the engine labels the node's operator: a scan's rows in are its
// table's, a join's its outer side's. Cancellation is node-granular: an
// expired context surfaces between operator evaluations.
func (r *reference) node(n plan.Node) (*RowSet, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	var rs *RowSet
	var err error
	st := OpStat{Node: n}
	switch t := n.(type) {
	case *plan.Scan:
		st.Label, st.RowsIn = scanLabel(t), int64(r.tables[t.Rel].NumRows())
		rs, err = r.scan(t)
	case *plan.Join:
		st.Label = probeLabel(t)
		rs, st.RowsIn, err = r.join(t)
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	st.RowsOut = int64(rs.Len())
	r.ops = append(r.ops, st)
	return rs, nil
}

// scan runs the scan's compiled predicate chain over the whole table, then
// tests each surviving row against each Bloom filter in plan order.
func (r *reference) scan(s *plan.Scan) (*RowSet, error) {
	tbl := r.tables[s.Rel]
	kernels, err := query.Compile(s.Pred, tbl)
	if err != nil {
		return nil, fmt.Errorf("exec: scan of %s: %w", s.Alias, err)
	}
	probes, err := r.blooms.probesFor(s)
	if err != nil {
		return nil, err
	}
	out := NewRowSet(query.NewRelSet(s.Rel))
	var ids []int32
rows:
	for _, i := range query.NewChain(kernels).EvalRange(0, make([]int32, tbl.NumRows())) {
		for _, p := range probes {
			p.st.Tested++
			if !p.h.MayContainHash(bloom.KeyHash(p.vals[i])) {
				continue rows
			}
			p.st.Passed++
		}
		ids = append(ids, i)
	}
	out.cols[0] = ids
	return out, nil
}

// join evaluates the inner (build) side first, which is what guarantees a
// join's Bloom filters are complete before any outer-side scan that
// applies them runs. It returns the join's rows and the outer rows it probed with.
func (r *reference) join(j *plan.Join) (*RowSet, int64, error) {
	inner, err := r.node(j.Inner)
	if err != nil {
		return nil, 0, err
	}
	if len(j.BuildBlooms) > 0 {
		if err := r.blooms.build(j, inner.Len(), feedVector(inner, nil)); err != nil {
			return nil, 0, err
		}
	}
	outer, err := r.node(j.Outer)
	if err != nil {
		return nil, 0, err
	}
	if len(j.Conds) == 0 {
		return nil, 0, fmt.Errorf("exec: HashJoin(%s) with no conditions", j.Kind())
	}
	// Every condition's key values, per side, indexed by row position: the
	// first condition drives the hash, the rest verify pairs.
	conds := make([]condKeys, len(j.Conds))
	for c, cond := range j.Conds {
		conds[c] = condKeys{
			o: keyColumn(outer, r.tables[cond.OuterRel], cond.OuterRel, cond.OuterCol),
			i: keyColumn(inner, r.tables[cond.InnerRel], cond.InnerRel, cond.InnerCol),
		}
	}
	rels := outer.rels.Union(inner.rels)
	pj := pairJoin{
		out:    NewRowSetCap(rels, outer.Len()),
		wiring: newColWiring(rels, outer.rels, inner.rels),
		outer:  outer, inner: inner, conds: conds,
	}
	err = pj.hash(j.JoinType, j.BuildPreserved)
	return pj.out, int64(outer.Len()), err
}

type condKeys struct{ o, i []int64 }

// pairJoin is one join evaluation: both materialized inputs, the key
// columns of every condition, and the output under construction.
type pairJoin struct {
	out          *RowSet
	wiring       *colWiring
	outer, inner *RowSet
	conds        []condKeys
}

// match verifies the conditions after the first, the one the hash table
// matched on, for outer row oi and inner row ii.
func (pj *pairJoin) match(oi, ii int) bool {
	for _, c := range pj.conds[1:] {
		if c.o[oi] != c.i[ii] {
			return false
		}
	}
	return true
}

// emit appends outer row oi joined with inner row ii; a negative index
// null-extends that side.
func (pj *pairJoin) emit(oi, ii int) {
	pj.out.appendJoined(pj.wiring, pj.outer, oi, pj.inner, ii)
}

// hash probes a table over the inner rows once per outer row: inner and left
// joins emit every match, a semi join its outer row once; anti and left
// joins null-extend an outer row without a match. A semi or anti join's
// output carries nulls in the unit's columns whichever side was built
// (hashMirrored is the other one), so a block's rows do not depend on it.
func (pj *pairJoin) hash(jt query.JoinType, buildPreserved bool) error {
	switch jt {
	case query.Semi, query.Anti, query.Left:
	case query.Inner:
		if buildPreserved {
			return fmt.Errorf("exec: inner hash join marked build-preserved (plan bug)")
		}
	default:
		return fmt.Errorf("exec: unsupported hash join type %s", jt)
	}
	keys := pj.conds[0]
	ix := newChainIndex(keys.i)
	if buildPreserved {
		pj.hashMirrored(jt, ix)
		return nil
	}
	for oi, key := range keys.o {
		matched := false
		for ii := ix.first(key); ii >= 0; ii = ix.next(key, ii) {
			if !pj.match(oi, int(ii)) {
				continue
			}
			matched = true
			switch jt {
			case query.Inner, query.Left:
				pj.emit(oi, int(ii))
				continue
			case query.Semi:
				pj.emit(oi, -1)
			}
			break
		}
		if !matched && (jt == query.Anti || jt == query.Left) {
			pj.emit(oi, -1)
		}
	}
	return nil
}

// hashMirrored is hash with the preserve side building: the outer rows are
// the unit's, each match marks its inner row — a left join also emits the
// pair — and once the outer side is exhausted the inner rows the type keeps
// follow: the marked ones of a semi join, the unmarked ones of an anti join,
// the unmarked ones null-extended of a left join.
func (pj *pairJoin) hashMirrored(jt query.JoinType, ix *chainIndex) {
	keys := pj.conds[0]
	marked := make([]bool, len(keys.i))
	for oi, key := range keys.o {
		for ii := ix.first(key); ii >= 0; ii = ix.next(key, ii) {
			if !pj.match(oi, int(ii)) {
				continue
			}
			marked[ii] = true
			if jt == query.Left {
				pj.emit(oi, int(ii))
			}
		}
	}
	for ii, m := range marked {
		if m == (jt == query.Semi) {
			pj.emit(-1, ii)
		}
	}
}

// chainIndex is the reference join's own hash index over the build keys. It
// shares no code with the engine's join table, so the equivalence suites
// can catch a bug in that: a power-of-two bucket array of chain heads,
// indexed by Fibonacci hashing, and one chain link a build row. Rows are
// linked last to first, so every chain — and so every key's matches — runs
// in ascending build row.
type chainIndex struct {
	shift uint
	keys  []int64
	head  []int32 // bucket -> its lowest build row, -1 for none
	link  []int32 // build row -> the next row of its bucket, -1 at the end
}

func newChainIndex(keys []int64) *chainIndex {
	lg := uint(bits.Len(uint(len(keys))))
	ix := &chainIndex{shift: 64 - lg, keys: keys, head: make([]int32, 1<<lg), link: make([]int32, len(keys))}
	for b := range ix.head {
		ix.head[b] = -1
	}
	for r := len(keys) - 1; r >= 0; r-- {
		b := ix.bucket(keys[r])
		ix.link[r], ix.head[b] = ix.head[b], int32(r)
	}
	return ix
}

// bucket is Fibonacci hashing: the top bits of the key times 2^64/φ.
func (ix *chainIndex) bucket(key int64) uint64 {
	return uint64(key) * 0x9e3779b97f4a7c15 >> ix.shift
}

// first returns key's lowest build row, or -1.
func (ix *chainIndex) first(key int64) int32 {
	return ix.seek(key, ix.head[ix.bucket(key)])
}

// next returns key's next build row after r, or -1.
func (ix *chainIndex) next(key int64, r int32) int32 {
	return ix.seek(key, ix.link[r])
}

// seek walks the chain from r to the first row holding key.
func (ix *chainIndex) seek(key int64, r int32) int32 {
	for r >= 0 && ix.keys[r] != key {
		r = ix.link[r]
	}
	return r
}
