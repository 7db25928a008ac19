// Package bloom implements the one Bloom filter the BF-CBO executor runs: a
// register-blocked filter with exactly two hash functions (the paper fixes
// the hash count at two for performance, §3.5) and its vectorized probes.
//
// Blocked layout (Putze, Sanders & Singler, "Cache-, Hash- and
// Space-Efficient Bloom Filters", WEA 2007): a key's two bits share one
// 64-bit word, so a test is one load and one compare, w&m == m. The key is
// hashed with one 64-bit multiply (multiply-shift, as in Lang et al.,
// "Performance-Optimal Filtering", PVLDB 12(5), 2019) and one xor-shift:
// the top bits of the hash pick the word and the 12 bits below them the two
// bit positions. The price is a false positive rate about 1.2× the
// classical one (FPR).
//
// §3.9's per-partition filters belong to a cluster; here a build side is
// one table, and one goroutine populates its filter.
package bloom

import (
	"math"
	"math/bits"

	"bfcbo/internal/hashtab"
)

// NumHashFunctions is fixed at two, matching §3.5 of the paper: "The number
// of hash functions is fixed at two for performance reasons."
const NumHashFunctions = 2

// Filter is a blocked Bloom filter over int64 join keys with two hash
// functions. The zero value is not usable; construct with New or NewForNDV.
type Filter struct {
	words []uint64
	// shift is 64 - log2(len(words)) - 12: h >> shift keeps the word index
	// in its top bits and the two 6-bit positions in its low 12.
	shift    uint
	inserted uint64
}

// New creates a filter with at least nbits bits. nbits is rounded up to a
// power of two (minimum 64) so that the word index is the top bits of the
// hash.
func New(nbits uint64) *Filter {
	if nbits < 64 {
		nbits = 64
	}
	nbits = nextPow2(nbits)
	nwords := nbits / 64
	return &Filter{
		words: make([]uint64, nwords),
		shift: uint(64 - bits.TrailingZeros64(nwords) - 12),
	}
}

// NewForNDV sizes a filter at 8 bits per expected distinct value, rounded
// up to a power of two: FPR (1-e^(-2n/m))² ≈ 0.049 or lower, the design
// ratio the planner's FPR model assumes (stats.ModelFPR). The executor does
// not build this size; it builds New(BitsForNDV(ndv)).
func NewForNDV(ndv uint64) *Filter {
	if ndv == 0 {
		ndv = 1
	}
	return New(8 * ndv)
}

// BitsForNDV is the size, in bits, of the filter the executor builds for
// an estimated ndv distinct keys: 16 bits per key, rounded up to a power of
// two (at least 64), so FPR ≈ 0.015 or lower (about 0.018 blocked). Estimates
// run low, and at 8 bits per key the cheaper probe is paid back in false
// positives. The engine profile's Heuristic 5 prunes by the same size.
func BitsForNDV(ndv uint64) uint64 {
	return max(64, nextPow2(16*max(ndv, 1)))
}

// NBits reports the size of the bit vector in bits.
func (f *Filter) NBits() uint64 { return 64 * uint64(len(f.words)) }

// Inserted reports how many Add calls have been made (not distinct keys).
func (f *Filter) Inserted() uint64 { return f.inserted }

// keyMul is the multiplier of the filter's hash: the odd 64-bit golden-ratio
// constant of Fibonacci hashing.
const keyMul = 0x9e3779b97f4a7c15

// KeyHash is the filter's key hash: one multiply, then the product xored
// with itself shifted left by 38, so the top bits also depend on the
// product's low bits. A plain multiply clusters some key strides into few
// words: over 96 strides, its worst was 40× FPR (2.8× at stride 1 000),
// and this hash's 2.2×. The shift is not arbitrary: at 17, random subsets
// of a 25-key domain (TPC-H's nation keys) ran at 7× FPR.
// It is not the join tables' mixer (hashtab.Hash): a filter's hash serves
// only the filter, so build and apply sides both hash through here.
func KeyHash(key int64) uint64 {
	h := uint64(key) * keyMul
	return h ^ h<<38
}

// hash2 is an independent second mixer used only by CombineKeys, where
// two columns must be folded through genuinely distinct functions.
func hash2(key int64) uint64 {
	x := uint64(key) + 0xc2b2ae3d27d4eb4f
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// Add inserts a key into the filter.
func (f *Filter) Add(key int64) { f.AddHash(KeyHash(key)) }

// AddHash inserts a key by its hash: any 64-bit hash whose top bits are well
// mixed, as long as the tests hash the same way (KeyHash for Add,
// FilterSel and the MayContainHash of a key).
func (f *Filter) AddHash(h uint64) {
	h >>= f.shift
	f.words[h>>12] |= 1<<(h&63) | 1<<(h>>6&63)
	f.inserted++
}

// MayContainHash reports whether a key with hash h (see AddHash) may have
// been inserted. False means definitely absent; true may be a false
// positive.
func (f *Filter) MayContainHash(h uint64) bool {
	h >>= f.shift
	m := uint64(1)<<(h&63) | 1<<(h>>6&63)
	return f.words[h>>12]&m == m
}

// FilterSel is the scan's fused probe: vals is the key column indexed by
// row id, and sel the selected row ids. One loop reads each row's key,
// hashes it, tests its word and compacts sel in place; it returns the kept
// prefix. No key or hash vector is written. The compaction is branch-free:
// every row is stored at the write index, which advances on a pass (a
// conditional move on amd64), so a 7 % pass rate costs no mispredictions.
func (f *Filter) FilterSel(vals []int64, sel []int32) []int32 {
	words, shift := f.words, f.shift&63 // the mask drops the shift's range check
	n := 0
	for _, r := range sel {
		h := KeyHash(vals[r]) >> shift
		m := uint64(1)<<(h&63) | 1<<(h>>6&63)
		sel[n] = r
		if words[h>>12]&m == m {
			n++
		}
	}
	return sel[:n]
}

// FilterSelHashes is FilterSel over precomputed hashes: hashes[i] is the
// hash (see AddHash) of selected row sel[i]. The scan's two-column filters
// hash their combined keys this way.
func (f *Filter) FilterSelHashes(hashes []uint64, sel []int32) []int32 {
	words, shift := f.words, f.shift&63
	n := 0
	for i, r := range sel {
		h := hashes[i] >> shift
		m := uint64(1)<<(h&63) | 1<<(h>>6&63)
		sel[n] = r
		if words[h>>12]&m == m {
			n++
		}
	}
	return sel[:n]
}

// Saturation reports the fraction of set bits in [0,1]. The paper's future
// work (§5) proposes monitoring saturation to detect useless filters; the
// executor reports it per filter.
func (f *Filter) Saturation() float64 {
	set := 0
	for _, w := range f.words {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.NBits())
}

// FPR computes the theoretical false positive rate of a classical 2-hash
// Bloom filter holding n keys in m bits. It is shared with the optimizer's
// cost model so planning-time and runtime FPR agree. A blocked filter (this
// package's) runs about 1.2× above it at 16 bits per key: keys crowd some
// words more than others.
func FPR(n, m uint64) float64 {
	if m == 0 {
		return 1
	}
	p := 1 - math.Exp(-float64(NumHashFunctions)*float64(n)/float64(m))
	return p * p
}

// CombineKeys folds a two-column composite join key into one 64-bit key
// for multi-column Bloom filters (§5 future work: "support for
// multi-column Bloom filters could be added"). Build and apply sides must
// use the same combination, which this shared helper guarantees. Both
// columns pass through a full mixer, so the combined key is well mixed
// before KeyHash's multiply.
func CombineKeys(a, b int64) int64 {
	return int64(hashtab.Hash(a) ^ hash2(b))
}

func nextPow2(v uint64) uint64 {
	if v&(v-1) == 0 {
		return v
	}
	return 1 << bits.Len64(v)
}
