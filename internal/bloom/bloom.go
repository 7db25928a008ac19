// Package bloom implements the one Bloom filter the BF-CBO executor runs:
// a flat bit-vector filter with exactly two hash functions (the paper fixes
// the hash count at two for performance, §3.5) and its vectorized probes.
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

// Filter is a Bloom filter over int64 join keys with two hash functions.
// The zero value is not usable; construct with New or NewForNDV.
type Filter struct {
	bitsArr  []uint64
	mask     uint64 // len(bitsArr)*64 - 1; bit count is a power of two
	inserted uint64
}

// New creates a filter with at least nbits bits. nbits is rounded up to a
// power of two (minimum 64) so that hash reduction is a mask, not a modulo.
func New(nbits uint64) *Filter {
	if nbits < 64 {
		nbits = 64
	}
	nbits = nextPow2(nbits)
	return &Filter{
		bitsArr: make([]uint64, nbits/64),
		mask:    nbits - 1,
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
// two (at least 64), so FPR ≈ 0.015 or lower. Estimates run low, and at 8
// bits per key the cheaper probe is paid back in false positives. The
// engine profile's Heuristic 5 prunes by the same size.
func BitsForNDV(ndv uint64) uint64 {
	return max(64, nextPow2(16*max(ndv, 1)))
}

// NBits reports the size of the bit vector in bits.
func (f *Filter) NBits() uint64 { return f.mask + 1 }

// Inserted reports how many Add calls have been made (not distinct keys).
func (f *Filter) Inserted() uint64 { return f.inserted }

// KeyHash is the filter's primary key mixer — hashtab.Hash, the one
// mixer shared with the executor's join and aggregation tables. Batch
// operators hash a key once and feed
// the same value to the Bloom probe (via MayContainHash) and the join
// probe, instead of each path rehashing independently.
func KeyHash(key int64) uint64 { return hashtab.Hash(key) }

// rehash derives the filter's second probe position from the primary
// hash (murmur3 finalizer step), so both of the §3.5 "exactly two" hash
// functions cost the caller a single key mix.
func rehash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ (h >> 33)
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

// AddHash inserts a key by its precomputed KeyHash.
func (f *Filter) AddHash(h uint64) {
	h1 := h & f.mask
	h2 := rehash(h) & f.mask
	f.bitsArr[h1>>6] |= 1 << (h1 & 63)
	f.bitsArr[h2>>6] |= 1 << (h2 & 63)
	f.inserted++
}

// MayContain reports whether the key may have been inserted. False means
// definitely absent; true may be a false positive.
func (f *Filter) MayContain(key int64) bool {
	return f.MayContainHash(KeyHash(key))
}

// MayContainHash is MayContain over a precomputed KeyHash — the batch
// probe path, where the caller's hash vector is shared with the join
// table probe.
func (f *Filter) MayContainHash(h uint64) bool {
	h1 := h & f.mask
	if f.bitsArr[h1>>6]&(1<<(h1&63)) == 0 {
		return false
	}
	h2 := rehash(h) & f.mask
	return f.bitsArr[h2>>6]&(1<<(h2&63)) != 0
}

// FilterSelHashes is the vectorized scan probe: hashes[i] is the
// precomputed KeyHash for selected row sel[i]. It compacts sel in place,
// keeping rows whose key may be present, and returns the kept prefix. Bit
// tests are inlined so the loop carries no per-row call overhead.
func (f *Filter) FilterSelHashes(hashes []uint64, sel []int32) []int32 {
	bitsArr, mask := f.bitsArr, f.mask
	n := 0
	for i, r := range sel {
		h := hashes[i]
		h1 := h & mask
		if bitsArr[h1>>6]&(1<<(h1&63)) == 0 {
			continue
		}
		h2 := rehash(h) & mask
		if bitsArr[h2>>6]&(1<<(h2&63)) == 0 {
			continue
		}
		sel[n] = r
		n++
	}
	return sel[:n]
}

// FilterSelHashesCarry is FilterSelHashes with a second vector compacted
// in lockstep: carry[i] travels with sel[i] (the executor threads a
// surviving hash vector through a chain of Bloom probes this way). Both
// sel and carry are compacted in place; the write index never passes the
// read index, so calling with carry == hashes is safe — that is how the
// probe whose own hashes become the carry seeds the chain.
func (f *Filter) FilterSelHashesCarry(hashes []uint64, sel []int32, carry []uint64) ([]int32, []uint64) {
	bitsArr, mask := f.bitsArr, f.mask
	n := 0
	for i, r := range sel {
		h := hashes[i]
		h1 := h & mask
		if bitsArr[h1>>6]&(1<<(h1&63)) == 0 {
			continue
		}
		h2 := rehash(h) & mask
		if bitsArr[h2>>6]&(1<<(h2&63)) == 0 {
			continue
		}
		sel[n] = r
		carry[n] = carry[i]
		n++
	}
	return sel[:n], carry[:n]
}

// Saturation reports the fraction of set bits in [0,1]. The paper's future
// work (§5) proposes monitoring saturation to detect useless filters; the
// executor reports it per filter.
func (f *Filter) Saturation() float64 {
	set := 0
	for _, w := range f.bitsArr {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.NBits())
}

// FPR computes the theoretical false positive rate of a 2-hash Bloom filter
// holding n keys in m bits. It is shared with the optimizer's cost model so
// planning-time and runtime FPR agree.
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
// use the same combination, which this shared helper guarantees.
func CombineKeys(a, b int64) int64 {
	return int64(KeyHash(a) ^ hash2(b))
}

func nextPow2(v uint64) uint64 {
	if v&(v-1) == 0 {
		return v
	}
	return 1 << bits.Len64(v)
}
