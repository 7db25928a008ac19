// Package hashtab provides the cache-conscious hash-table kernels of the
// executor's hot paths: a flat "unchained" join table and a flat
// open-addressing aggregation table, both replacing Go's built-in maps on
// every batch build/probe/aggregate loop.
//
// Both structures share one 64-bit key mixer (Hash). The Bloom filters
// hash with their own, cheaper function (bloom.KeyHash), so a key that
// flows through a Bloom test and then a join probe is hashed by each.
//
// Join table layout ("unchained", after the SIGMOD '21/'24 line of
// unchained in-memory join tables): the directory is a linear-probing
// array of fixed-width slots
//
//	tags []uint8   8-bit hash tag (0 = empty) — the prefilter
//	keys []int64   full key for verification
//	offs []uint32  end of the key's payload run
//	cnts []uint32  payload run length
//
// and the payload is one contiguous rows []int32 array in which every
// key's build-row ids sit back to back (ascending build order). A probe
// hit therefore costs one directory touch — tag byte, key word — plus a
// contiguous payload scan, where a Go map pays bucket-pointer chasing
// plus a per-key []int32 slice header indirection. A probe miss is
// usually rejected by the tag byte without ever loading the key.
//
// The build is two passes over the input (count, then scatter), sized
// exactly — no per-key append growth, no rehashing, and the payload
// order is deterministic: ascending build-row id per key, matching the
// map-based reference insert order, so results are bit-identical.
package hashtab

import (
	"errors"
	"math"
	"math/bits"
)

// MaxRows bounds a table build: payload row ids are int32, so a build
// side beyond 2^31-1 rows cannot be represented.
const MaxRows = math.MaxInt32

// ErrTooManyRows reports a build side exceeding the int32 row-id domain.
var ErrTooManyRows = errors.New("hashtab: build side exceeds 2^31-1 rows")

// Hash is the shared 64-bit key mixer (splitmix64 finalizer over the
// golden-ratio offset) used by the join directory and the aggregation
// directory, and inside bloom.CombineKeys to fold two-column keys.
func Hash(k int64) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashVec fills dst (resliced as needed) with Hash of every key.
func HashVec(keys []int64, dst []uint64) []uint64 {
	if cap(dst) < len(keys) {
		dst = make([]uint64, len(keys))
	}
	dst = dst[:len(keys)]
	for i, k := range keys {
		dst[i] = Hash(k)
	}
	return dst
}

// tagOf derives the 8-bit directory tag from a hash. It reads bits
// 24–31 — disjoint from the directory index (top bits) — and forces the
// high bit so an occupied slot can never alias the 0 = empty marker.
func tagOf(h uint64) uint8 { return uint8(h>>24) | 0x80 }

// dirSize returns the directory size for n distinct-key upper bound:
// the next power of two ≥ 2n (load factor ≤ 0.5), minimum 16.
func dirSize(n int) uint64 {
	d := uint64(2 * n)
	if d < 16 {
		return 16
	}
	if d&(d-1) == 0 {
		return d
	}
	return 1 << bits.Len64(d)
}

// JoinTable is the flat join hash table: a linear-probing directory of
// (tag, key, offset, count) slots over one contiguous payload of build
// row ids. Immutable after Build; safe for concurrent probes.
type JoinTable struct {
	shift uint
	mask  uint64
	tags  []uint8
	keys  []int64
	offs  []uint32 // end of the slot's payload run (start = end - cnt)
	cnts  []uint32
	rows  []int32
}

// Build constructs a table over the given build rows. keys and hashes
// are parallel (hashes[i] = Hash(keys[i]), computed once per build by
// HashVec). ids selects the build-row
// subset (nil = all rows, as the executor builds); payload entries are
// the ids values themselves, emitted in ids order — callers pass
// ascending ids, so a key's payload run is ascending, matching the
// map-based reference kernels bit for bit.
func Build(keys []int64, hashes []uint64, ids []int32) (*JoinTable, error) {
	n := len(keys)
	if ids != nil {
		n = len(ids)
	}
	if err := checkRows(n); err != nil {
		return nil, err
	}
	if err := checkRows(len(keys)); err != nil {
		return nil, err
	}
	t := &JoinTable{}
	if n == 0 {
		return t, nil
	}
	dir := dirSize(n)
	lg := uint(bits.TrailingZeros64(dir))
	t.shift = 64 - lg
	t.mask = dir - 1
	t.tags = make([]uint8, dir)
	t.keys = make([]int64, dir)
	t.offs = make([]uint32, dir)
	t.cnts = make([]uint32, dir)
	t.rows = make([]int32, n)

	// Pass 1: claim directory slots and count payload runs, remembering
	// each row's slot so the scatter never re-probes.
	slotOf := make([]uint32, n)
	for j := 0; j < n; j++ {
		i := j
		if ids != nil {
			i = int(ids[j])
		}
		k, h := keys[i], hashes[i]
		tag := tagOf(h)
		s := h >> t.shift
		for {
			tg := t.tags[s]
			if tg == 0 {
				t.tags[s] = tag
				t.keys[s] = k
				t.cnts[s] = 1
				break
			}
			if tg == tag && t.keys[s] == k {
				t.cnts[s]++
				break
			}
			s = (s + 1) & t.mask
		}
		slotOf[j] = uint32(s)
	}
	// Prefix-sum the counts into start offsets; the scatter advances
	// offs to each run's end, which is what Lookup expects.
	var off uint32
	for s := range t.cnts {
		t.offs[s] = off
		off += t.cnts[s]
	}
	// Pass 2: scatter build-row ids into their runs, in input order.
	for j := 0; j < n; j++ {
		i := j
		if ids != nil {
			i = int(ids[j])
		}
		s := slotOf[j]
		t.rows[t.offs[s]] = int32(i)
		t.offs[s]++
	}
	return t, nil
}

// Lookup returns the build-row ids matching key (h = Hash(key), hashed
// once by the caller per batch). The returned slice aliases the payload
// array: zero allocations, valid for the table's lifetime.
func (t *JoinTable) Lookup(key int64, h uint64) []int32 {
	if len(t.tags) == 0 {
		return nil
	}
	tag := tagOf(h)
	s := h >> t.shift
	for {
		tg := t.tags[s]
		if tg == 0 {
			return nil
		}
		if tg == tag && t.keys[s] == key {
			end := t.offs[s]
			return t.rows[end-t.cnts[s] : end]
		}
		s = (s + 1) & t.mask
	}
}

// Bytes reports the exact heap footprint of the directory and payload —
// what the memory broker should account for this table.
func (t *JoinTable) Bytes() int64 {
	return int64(len(t.tags))*(1+8+4+4) + int64(len(t.rows))*4
}

// ---------------------------------------------------------------------------

// AggTable is the flat aggregation table: an open-addressing directory
// keyed by raw int64 group codes, each slot carrying a count and a Sum
// accumulator. Group-by-string sinks intern the key column into dense
// codes once (setup), then every fold is an integer probe — no string
// hashing, no map buckets on the per-row path. The table grows by
// doubling at 3/4 load. Counts and sums are integers added with carry, so
// a table's contents depend only on the multiset of (key, cnt, x) folded
// into it — not on the order, nor on how the rows were split across
// tables that were later merged.
type AggTable struct {
	shift uint
	mask  uint64
	tags  []uint8
	keys  []int64
	cnts  []int64
	sums  []Sum
	n     int
}

// NewAgg creates a table sized for about hint distinct keys.
func NewAgg(hint int) *AggTable {
	t := &AggTable{}
	t.init(dirSize(hint))
	return t
}

func (t *AggTable) init(dir uint64) {
	lg := uint(bits.TrailingZeros64(dir))
	t.shift = 64 - lg
	t.mask = dir - 1
	t.tags = make([]uint8, dir)
	t.keys = make([]int64, dir)
	t.cnts = make([]int64, dir)
	t.sums = make([]Sum, dir)
}

// slot returns key's directory slot, claiming an empty one on first touch
// (h must equal Hash(key)). The caller has made room (reserve) first. Kept
// small enough to inline into the per-row AddHash.
func (t *AggTable) slot(key int64, h uint64) uint64 {
	tag := tagOf(h)
	s := h >> t.shift
	for t.tags[s] != tag || t.keys[s] != key {
		if t.tags[s] == 0 {
			t.tags[s], t.keys[s] = tag, key
			t.n++
			break
		}
		s = (s + 1) & t.mask
	}
	return s
}

// reserve grows the directory when one more key would pass 3/4 load.
func (t *AggTable) reserve() {
	if uint64(4*(t.n+1)) > 3*uint64(len(t.tags)) {
		t.grow()
	}
}

// Add folds cnt rows and the measure x into key's accumulators, creating
// the group on first touch.
func (t *AggTable) Add(key int64, cnt int64, x float64) {
	t.AddHash(key, Hash(key), cnt, x)
}

// AddHash is Add with the key's hash precomputed (h must equal
// Hash(key)). The vectorized fold hashes a whole code vector once per
// batch via HashVec and feeds each value here.
func (t *AggTable) AddHash(key int64, h uint64, cnt int64, x float64) {
	t.reserve()
	s := t.slot(key, h)
	t.cnts[s] += cnt
	if x != 0 { // count-only folds pass 0 and skip the conversion
		t.sums[s].Add(x)
	}
}

// Merge folds another table's (cnt, sum) pair for key into this one —
// the cross-worker merge step: t.Each(out.Merge).
func (t *AggTable) Merge(key int64, cnt int64, sum Sum) {
	t.reserve()
	s := t.slot(key, Hash(key))
	t.cnts[s] += cnt
	t.sums[s].Merge(sum)
}

// grow doubles the directory and reinserts every occupied slot.
func (t *AggTable) grow() {
	tags, keys, cnts, sums := t.tags, t.keys, t.cnts, t.sums
	t.init(uint64(len(tags)) * 2)
	for s, tg := range tags {
		if tg == 0 {
			continue
		}
		h := Hash(keys[s])
		d := h >> t.shift
		for t.tags[d] != 0 {
			d = (d + 1) & t.mask
		}
		t.tags[d] = tagOf(h)
		t.keys[d] = keys[s]
		t.cnts[d] = cnts[s]
		t.sums[d] = sums[s]
	}
}

// Len reports the number of distinct keys.
func (t *AggTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Each calls fn for every group, in directory-slot order. sum.Float64()
// is the group's reported value.
func (t *AggTable) Each(fn func(key int64, cnt int64, sum Sum)) {
	if t == nil {
		return
	}
	for s, tg := range t.tags {
		if tg != 0 {
			fn(t.keys[s], t.cnts[s], t.sums[s])
		}
	}
}

// aggSlotBytes is one directory slot's footprint: tag, key, count, Sum.
const aggSlotBytes = 1 + 8 + 8 + sumBytes

// Bytes reports the exact heap footprint of the directory.
func (t *AggTable) Bytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.tags)) * aggSlotBytes
}

// checkRows is the >2^31 guard behind Build, split out so the bound is
// unit-testable without allocating a 2^31-row slice.
func checkRows(n int) error {
	if n > MaxRows {
		return ErrTooManyRows
	}
	return nil
}
