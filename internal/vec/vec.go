// Package vec holds the scan's vector loops: AVX-512 (F, DQ and VL) loops
// in Go assembly that test eight rows an iteration and write the kept row
// ids with one compress and one full-width store (Polychroniou, Raghavan &
// Ross, "Rethinking SIMD Vectorization for In-Memory Databases", SIGMOD
// 2015). Each entry serves one Go loop of its caller: it runs over whole
// blocks of eight rows from the start and reports how many rows it took
// (done) and how many ids it kept (n), and the caller's Go loop goes on
// from row done with n ids already kept. The loops keep exactly the rows,
// in exactly the order, that the Go loop would, so the output and every
// tally are the same on either path.
//
// The CPU's features, and whether the OS saves the ZMM and opmask state,
// are checked once at start-up. On a CPU without them, or in a build for
// another architecture, every entry returns (0, 0) at once and the caller's
// Go loop does all the work.
//
// The only ids written are to sel[0:done]; a store may leave ids past the
// kept prefix, as the Go loops do.
package vec

// AVX512 reports whether this process runs the vector loops.
func AVX512() bool { return avx512 }

// KeepRange keeps the dense rows whose value v has uint64(v-low) <= width
// (with neg, the rows that fail it): row i of vals has id id+i. This one
// unsigned compare is every int64 predicate on one column (see
// query.Compile). sel must have room for len(vals) ids.
func KeepRange(vals []int64, id int32, low int64, width uint64, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(vals) < 8 {
		return 0, 0
	}
	return keepRange(vals, id, low, width, neg, sel[:len(vals)])
}

// BloomRange keeps the dense rows whose key may be in the blocked Bloom
// filter words: row i of vals has id id+i, and a key's test is
// bloom.Filter's, KeyHash(v) >> shift picking one word and two bits in it.
// sel must have room for len(vals) ids.
func BloomRange(words []uint64, shift uint, vals []int64, id int32, sel []int32) (n, done int) {
	if !avx512 || len(vals) < 8 {
		return 0, 0
	}
	return bloomRange(words, shift, vals, id, sel[:len(vals)])
}

// BloomSel is BloomRange over the selected rows sel, whose keys it gathers
// from vals by row id; it compacts sel in place. It stops before the first
// block of eight that holds an id outside vals, so the caller's Go loop
// meets that id and panics on it as it would without this loop.
func BloomSel(words []uint64, shift uint, vals []int64, sel []int32) (n, done int) {
	if !avx512 || len(sel) < 8 {
		return 0, 0
	}
	// Row ids are int32, so any id below 1<<31 is in a longer column; the
	// loop compares ids with the length as unsigned 32-bit numbers.
	return bloomSel(words, shift, vals[:min(len(vals), 1<<31)], sel)
}
