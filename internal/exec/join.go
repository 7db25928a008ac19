package exec

import (
	"fmt"

	"bfcbo/internal/hashtab"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// hashJoin executes an equi hash join. The first condition supplies the hash
// key; remaining conditions are verified per candidate pair. Inner joins run
// partitioned across dop workers when the streaming annotation says
// Redistribute; semi/anti/left run single-threaded per partition group too,
// since their semantics are per-outer-row.
func (ex *executor) hashJoin(j *plan.Join, outer, inner *RowSet) (*RowSet, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: hash join with no conditions")
	}
	out := outer.rels.Union(inner.rels)
	result := NewRowSet(out)
	if outer.Len() == 0 {
		return result, nil
	}

	c0 := j.Conds[0]
	outerKeys := keyColumn(outer, ex.tables[c0.OuterRel], c0.OuterRel, c0.OuterCol)
	innerKeys := keyColumn(inner, ex.tables[c0.InnerRel], c0.InnerRel, c0.InnerCol)
	// Hash once, use everywhere: one vector per side feeds partition
	// routing, the flat-table build, and the probe loop.
	outerHashes := hashtab.HashVec(outerKeys, nil)
	innerHashes := hashtab.HashVec(innerKeys, nil)

	// Extra conditions are verified by comparing materialized key columns.
	type extra struct{ o, i []int64 }
	extras := make([]extra, 0, len(j.Conds)-1)
	for _, c := range j.Conds[1:] {
		extras = append(extras, extra{
			o: keyColumn(outer, ex.tables[c.OuterRel], c.OuterRel, c.OuterCol),
			i: keyColumn(inner, ex.tables[c.InnerRel], c.InnerRel, c.InnerCol),
		})
	}
	match := func(oi, ii int) bool {
		for _, e := range extras {
			if e.o[oi] != e.i[ii] {
				return false
			}
		}
		return true
	}

	dop := ex.dop
	if dop > 1 && outer.Len() >= dop {
		// Partition by key hash: both sides agree, so each worker joins an
		// independent slice (§3.9 partition join). partitionIdx hands out
		// segments of one flat index buffer — an empty segment means "no
		// rows", unlike the nil = "all rows" of the single-threaded call.
		oIds, oOffs := partitionIdx(outerHashes, dop)
		iIds, iOffs := partitionIdx(innerHashes, dop)
		parts := make([]*RowSet, dop)
		errs := make([]error, dop)
		parallelFor(dop, func(p int) {
			parts[p], errs[p] = joinPartition(j.JoinType, out, outer, inner,
				outerKeys, innerKeys, outerHashes, innerHashes,
				oIds[oOffs[p]:oOffs[p+1]], iIds[iOffs[p]:iOffs[p+1]], match)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return concat(out, parts), nil
	}

	// Single-threaded path: nil index slices mean "all rows" — no point
	// materializing every row id just to iterate it.
	return joinPartition(j.JoinType, out, outer, inner,
		outerKeys, innerKeys, outerHashes, innerHashes, nil, nil, match)
}

// partitionIdx groups row indices by key-hash modulo dop with a
// count-then-fill pass over one flat index buffer: ids holds every row
// index grouped by partition, offs[p]:offs[p+1] delimits partition p's
// segment. No per-partition append growth, one allocation for all
// partitions, and each segment stays in ascending row order.
func partitionIdx(hashes []uint64, dop int) (ids []int32, offs []int32) {
	offs = make([]int32, dop+1)
	for _, h := range hashes {
		offs[int(h%uint64(dop))+1]++
	}
	for p := 0; p < dop; p++ {
		offs[p+1] += offs[p]
	}
	ids = make([]int32, len(hashes))
	cur := make([]int32, dop)
	copy(cur, offs[:dop])
	for i, h := range hashes {
		p := int(h % uint64(dop))
		ids[cur[p]] = int32(i)
		cur[p]++
	}
	return ids, offs
}

// joinPartition joins one aligned partition of the two inputs through a
// flat hashtab.JoinTable built over the inner rows. A nil oIdx or iIdx
// means "every row of that side" (the single-threaded path), so callers
// need not materialize full index slices.
func joinPartition(jt query.JoinType, out query.RelSet, outer, inner *RowSet,
	outerKeys, innerKeys []int64, outerHashes, innerHashes []uint64,
	oIdx, iIdx []int32, match func(oi, ii int) bool) (*RowSet, error) {

	oLen := len(oIdx)
	if oIdx == nil {
		oLen = outer.Len()
	}
	at := func(idx []int32, i int) int {
		if idx == nil {
			return i
		}
		return int(idx[i])
	}
	ht, err := hashtab.Build(innerKeys, innerHashes, iIdx)
	if err != nil {
		return nil, err
	}
	wiring := newColWiring(out, outer.rels, inner.rels)
	res := NewRowSetCap(out, oLen)
	switch jt {
	case query.Inner:
		for x := 0; x < oLen; x++ {
			oi := at(oIdx, x)
			for _, ii := range ht.Lookup(outerKeys[oi], outerHashes[oi]) {
				if match(oi, int(ii)) {
					res.appendJoined(wiring, outer, oi, inner, int(ii))
				}
			}
		}
	case query.Semi:
		for x := 0; x < oLen; x++ {
			oi := at(oIdx, x)
			for _, ii := range ht.Lookup(outerKeys[oi], outerHashes[oi]) {
				if match(oi, int(ii)) {
					res.appendJoined(wiring, outer, oi, inner, int(ii))
					break
				}
			}
		}
	case query.Anti:
		for x := 0; x < oLen; x++ {
			oi := at(oIdx, x)
			found := false
			for _, ii := range ht.Lookup(outerKeys[oi], outerHashes[oi]) {
				if match(oi, int(ii)) {
					found = true
					break
				}
			}
			if !found {
				res.appendJoined(wiring, outer, oi, inner, -1)
			}
		}
	case query.Left:
		for x := 0; x < oLen; x++ {
			oi := at(oIdx, x)
			emitted := false
			for _, ii := range ht.Lookup(outerKeys[oi], outerHashes[oi]) {
				if match(oi, int(ii)) {
					res.appendJoined(wiring, outer, oi, inner, int(ii))
					emitted = true
				}
			}
			if !emitted {
				res.appendJoined(wiring, outer, oi, inner, -1)
			}
		}
	default:
		return nil, fmt.Errorf("exec: unsupported hash join type %s", jt)
	}
	return res, nil
}

// Semi and anti joins must not expose subquery-side columns; the planner
// nonetheless allocates them in the output row set (they hold the matched
// row id, or -1). Downstream nodes never read them for anti joins.

// mergeJoin sorts both inputs on the first condition and merges; extra
// conditions verify per pair. Inner joins only — the planner never picks
// merge for other types.
func (ex *executor) mergeJoin(j *plan.Join, outer, inner *RowSet) (*RowSet, error) {
	if j.JoinType != query.Inner {
		return nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", j.JoinType)
	}
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("exec: merge join with no conditions")
	}
	c0 := j.Conds[0]
	outerKeys := keyColumn(outer, ex.tables[c0.OuterRel], c0.OuterRel, c0.OuterCol)
	innerKeys := keyColumn(inner, ex.tables[c0.InnerRel], c0.InnerRel, c0.InnerCol)
	oIdx := sortByKey(outerKeys)
	iIdx := sortByKey(innerKeys)

	type extra struct{ o, i []int64 }
	extras := make([]extra, 0, len(j.Conds)-1)
	for _, c := range j.Conds[1:] {
		extras = append(extras, extra{
			o: keyColumn(outer, ex.tables[c.OuterRel], c.OuterRel, c.OuterCol),
			i: keyColumn(inner, ex.tables[c.InnerRel], c.InnerRel, c.InnerCol),
		})
	}

	out := outer.rels.Union(inner.rels)
	wiring := newColWiring(out, outer.rels, inner.rels)
	res := NewRowSetCap(out, len(oIdx))
	oi, ii := 0, 0
	for oi < len(oIdx) && ii < len(iIdx) {
		ok, ik := outerKeys[oIdx[oi]], innerKeys[iIdx[ii]]
		switch {
		case ok < ik:
			oi++
		case ok > ik:
			ii++
		default:
			// Gather the equal-key run on each side, emit the product.
			oe := oi
			for oe < len(oIdx) && outerKeys[oIdx[oe]] == ok {
				oe++
			}
			ie := ii
			for ie < len(iIdx) && innerKeys[iIdx[ie]] == ik {
				ie++
			}
			for a := oi; a < oe; a++ {
				for b := ii; b < ie; b++ {
					good := true
					for _, e := range extras {
						if e.o[oIdx[a]] != e.i[iIdx[b]] {
							good = false
							break
						}
					}
					if good {
						res.appendJoined(wiring, outer, oIdx[a], inner, iIdx[b])
					}
				}
			}
			oi, ii = oe, ie
		}
	}
	return res, nil
}

// nestLoop is the fallback quadratic join for tiny inputs.
func (ex *executor) nestLoop(j *plan.Join, outer, inner *RowSet) (*RowSet, error) {
	if j.JoinType != query.Inner {
		return nil, fmt.Errorf("exec: nested loop supports inner joins only, got %s", j.JoinType)
	}
	type keyed struct{ o, i []int64 }
	conds := make([]keyed, 0, len(j.Conds))
	for _, c := range j.Conds {
		conds = append(conds, keyed{
			o: keyColumn(outer, ex.tables[c.OuterRel], c.OuterRel, c.OuterCol),
			i: keyColumn(inner, ex.tables[c.InnerRel], c.InnerRel, c.InnerCol),
		})
	}
	out := outer.rels.Union(inner.rels)
	wiring := newColWiring(out, outer.rels, inner.rels)
	res := NewRowSet(out)
	for oi := 0; oi < outer.Len(); oi++ {
		for ii := 0; ii < inner.Len(); ii++ {
			good := true
			for _, c := range conds {
				if c.o[oi] != c.i[ii] {
					good = false
					break
				}
			}
			if good {
				res.appendJoined(wiring, outer, oi, inner, ii)
			}
		}
	}
	return res, nil
}
