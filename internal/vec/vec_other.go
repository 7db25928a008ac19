//go:build !amd64

package vec

const avx512 = false

func keepRange(vals []int64, id int32, low int64, width uint64, neg bool, sel []int32) (n, done int) {
	return 0, 0
}

func bloomRange(words []uint64, shift uint, vals []int64, id int32, sel []int32) (n, done int) {
	return 0, 0
}

func bloomSel(words []uint64, shift uint, vals []int64, sel []int32) (n, done int) {
	return 0, 0
}

func betweenFloat(vals []float64, id int32, lo, hi float64, neg bool, sel []int32) (n, done int) {
	return 0, 0
}

func betweenFloatSel(vals []float64, lo, hi float64, neg bool, sel []int32) (n, done int) {
	return 0, 0
}

func cmpCols(a, b []int64, id int32, lt, eq, flip uint8, sel []int32) (n, done int) {
	return 0, 0
}

func cmpColsSel(a, b []int64, lt, eq, flip uint8, sel []int32) (n, done int) {
	return 0, 0
}

func eqCodes(codes []int32, id int32, code int32, neg bool, sel []int32) (n, done int) {
	return 0, 0
}
