package vec

var avx512 = detect()

// detect reports whether the CPU has AVX-512 F, DQ and VL and the OS saves
// the state they use: the SSE, AVX, opmask and both ZMM parts of XCR0.
func detect() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&state != state {
		return false
	}
	const f, dq, vl = 1 << 16, 1 << 17, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(f|dq|vl) == f|dq|vl
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func keepRange(vals []int64, id int32, low int64, width uint64, neg bool, sel []int32) (n, done int)

//go:noescape
func bloomRange(words []uint64, shift uint, vals []int64, id int32, sel []int32) (n, done int)

//go:noescape
func bloomSel(words []uint64, shift uint, vals []int64, sel []int32) (n, done int)

//go:noescape
func betweenFloat(vals []float64, id int32, lo, hi float64, neg bool, sel []int32) (n, done int)

//go:noescape
func betweenFloatSel(vals []float64, lo, hi float64, neg bool, sel []int32) (n, done int)

//go:noescape
func cmpCols(a, b []int64, id int32, lt, eq, flip uint8, sel []int32) (n, done int)

//go:noescape
func cmpColsSel(a, b []int64, lt, eq, flip uint8, sel []int32) (n, done int)

//go:noescape
func eqCodes(codes []int32, id int32, code int32, neg bool, sel []int32) (n, done int)
