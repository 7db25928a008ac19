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
