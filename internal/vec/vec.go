// Package vec holds the scan's vector loops: AVX-512 (F, DQ and VL) loops
// in Go assembly that test eight rows an iteration, sixteen for int32
// codes, and write the kept row ids with one compress and one full-width
// store (Polychroniou, Raghavan & Ross, "Rethinking SIMD Vectorization for
// In-Memory Databases", SIGMOD 2015). Each entry serves one Go loop of its
// caller: it runs over whole blocks of rows from the start and reports how
// many rows it took (done) and how many ids it kept (n), and the caller's
// Go loop goes on from row done with n ids already kept. The loops keep
// exactly the rows, in exactly the order, that the Go loop would, so the
// output and every tally are the same on either path.
//
// The dense loops read a morsel's rows in order and write their ids:
// KeepRange (every int64 predicate on one column), BetweenFloat (every
// float64 one, a range or its negation, compared ordered and quiet as Go
// compares), CmpCols (two int64 columns), EqCodes (dictionary codes,
// sixteen rows an iteration) and BloomRange. The gather loops compact a
// selection in place, reading each row's values by its id:
// BetweenFloatSel, CmpColsSel and BloomSel. A gather loop stops
// before the first block that holds an id outside its columns, so the
// caller's Go loop meets that id and panics on it as it would without the
// vector loop.
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
// block of eight that holds an id outside vals.
func BloomSel(words []uint64, shift uint, vals []int64, sel []int32) (n, done int) {
	if !avx512 || len(sel) < 8 {
		return 0, 0
	}
	return bloomSel(words, shift, vals[:idLimit(len(vals))], sel)
}

// idLimit is the length a gather loop checks its ids against. Row ids are
// int32, so any id below 1<<31 is in a longer column; the loops compare
// ids with the length as unsigned 32-bit numbers.
func idLimit(n int) int { return min(n, 1<<31) }

// Cmp is a compare of a value a with b: LT keeps a < b, EQ keeps a == b
// and LE, both of them, a <= b. Every two-column compare a scan kernel
// runs is one of these or the negation of one (a != b, a >= b, a > b).
type Cmp uint8

const (
	LT Cmp = 1 << iota
	EQ
	LE = LT | EQ
)

// masks writes a compare and its negation as the loops' three lane masks:
// the lanes where a < b counts, the lanes where a == b counts, and the
// lanes that flip. Each is all eight lanes or none.
func masks(cmp Cmp, neg bool) (lt, eq, flip uint8) {
	if cmp&LT != 0 {
		lt = 0xff
	}
	if cmp&EQ != 0 {
		eq = 0xff
	}
	if neg {
		flip = 0xff
	}
	return lt, eq, flip
}

// BetweenFloat keeps the dense rows whose value v has lo <= v <= hi (with
// neg, the rows that fail it): row i of vals has id id+i. The compares are
// ordered, as Go's are, so a NaN on either side fails the range and passes
// its negation. sel must have room for len(vals) ids.
func BetweenFloat(vals []float64, id int32, lo, hi float64, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(vals) < 8 {
		return 0, 0
	}
	return betweenFloat(vals, id, lo, hi, neg, sel[:len(vals)])
}

// BetweenFloatSel is BetweenFloat over the selected rows sel, whose values
// it gathers from vals by row id; it compacts sel in place. It stops
// before the first block of eight that holds an id outside vals.
func BetweenFloatSel(vals []float64, lo, hi float64, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(sel) < 8 {
		return 0, 0
	}
	return betweenFloatSel(vals[:idLimit(len(vals))], lo, hi, neg, sel)
}

// CmpCols keeps the dense rows whose values have a[i] cmp b[i], compared
// as signed numbers (with neg, the rows that fail it): row i has id id+i.
// b must be as long as a, and sel must have room for len(a) ids.
func CmpCols(a, b []int64, id int32, cmp Cmp, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(a) < 8 {
		return 0, 0
	}
	lt, eq, flip := masks(cmp, neg)
	return cmpCols(a, b[:len(a)], id, lt, eq, flip, sel[:len(a)])
}

// CmpColsSel is CmpCols over the selected rows sel, whose values it
// gathers from a and b by row id; it compacts sel in place. It stops
// before the first block of eight that holds an id outside a or b.
func CmpColsSel(a, b []int64, cmp Cmp, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(sel) < 8 {
		return 0, 0
	}
	lt, eq, flip := masks(cmp, neg)
	m := idLimit(min(len(a), len(b)))
	return cmpColsSel(a[:m], b[:m], lt, eq, flip, sel)
}

// EqCodes keeps the dense rows whose dictionary code is code (with neg,
// the rows whose code differs): row i of codes has id id+i. It tests
// sixteen int32 codes an iteration. sel must have room for len(codes)
// ids.
func EqCodes(codes []int32, id int32, code int32, neg bool, sel []int32) (n, done int) {
	if !avx512 || len(codes) < 16 {
		return 0, 0
	}
	return eqCodes(codes, id, code, neg, sel[:len(codes)])
}
