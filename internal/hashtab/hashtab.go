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
// array of 16-byte slots, one per distinct key,
//
//	key int64   the full key
//	ref int32   the build-row id of a one-row key; else its run's start
//	cnt int32   build rows with this key (0 = empty slot)
//
// and the payload is one contiguous rows []int32 array holding the runs
// of the keys with two or more build rows, back to back (ascending build
// order). A key with one build row keeps its row id in the slot, so a
// table in which no key repeats — a build on a unique key, which is where
// most foreign-key probes go — has no payload at all, and a hit reads one
// slot, which never straddles a cache line. The unchained tables of
// Birler, Schmidt, Fent and Neumann (*Simple, Efficient, and Robust Hash
// Tables for Join Processing*, DaMoN 2024) keep one word a slot for the
// same reason.
//
// Probe matches a whole batch of keys. Over a table without repeated keys
// it writes one candidate per key without a branch — the miss slot's
// count of 0 simply does not advance the write index — and otherwise it
// copies each hit's run.
//
// The build is one pass over the input that claims the slots and counts
// the rows a key, then — only if some key repeats — a scatter of the
// repeated keys' rows into runs sized exactly: no per-key append growth,
// no rehashing, and the payload order is deterministic: ascending
// build-row id per key, so a probe emits a key's matches in ascending
// build-row order.
package hashtab

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// MaxRows bounds a table build: payload row ids are int32, so a build
// side beyond 2^31-1 rows cannot be represented.
const MaxRows = math.MaxInt32

// ErrTooManyRows reports a build side exceeding the int32 row-id domain.
var ErrTooManyRows = errors.New("hashtab: build side exceeds 2^31-1 rows")

// Hash is the shared 64-bit key mixer (splitmix64 finalizer over the
// golden-ratio offset) used by the join directory and the aggregation
// directory.
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

// slot is one directory entry: a distinct key, its build-row count (0 =
// empty) and, for a key with one row, that row's id; for a key with more,
// the start of its run in the payload.
type slot struct {
	key int64
	ref int32
	cnt int32
}

// slotBytes is one directory slot's footprint.
const slotBytes = int64(unsafe.Sizeof(slot{}))

// JoinTable is the flat join hash table: a linear-probing directory of
// 16-byte slots over one contiguous payload holding the row ids of the
// repeated keys. Immutable after Build; safe for concurrent probes.
type JoinTable struct {
	shift uint
	mask  uint64
	slots []slot
	rows  []int32 // runs of the keys with ≥ 2 rows; empty when no key repeats
}

// Build constructs a table over the given build rows. keys and hashes
// are parallel (hashes[i] = Hash(keys[i]), computed once per build by
// HashVec). ids selects the build-row
// subset (nil = all rows, as the executor builds); the table's row ids
// are the ids values themselves, kept in ids order — callers pass
// ascending ids, so a key's payload run is ascending and a probe emits its
// matches in ascending build-row order.
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
	t.slots = make([]slot, dir)

	// Pass 1: claim a slot per distinct key, keeping its first row id, and
	// count its rows, remembering each row's slot so the scatter never
	// re-probes.
	slotOf := make([]uint32, n)
	distinct := 0
	for j := 0; j < n; j++ {
		i := j
		if ids != nil {
			i = int(ids[j])
		}
		k := keys[i]
		s := hashes[i] >> t.shift
		for {
			sl := &t.slots[s]
			if sl.cnt == 0 {
				*sl = slot{key: k, ref: int32(i), cnt: 1}
				distinct++
				break
			}
			if sl.key == k {
				sl.cnt++
				break
			}
			s = (s + 1) & t.mask
		}
		slotOf[j] = uint32(s)
	}
	if distinct == n {
		return t, nil
	}
	// Lay the repeated keys' runs out back to back: each such slot's ref
	// becomes its run's start, and end[s] its run's end, which the scatter
	// counts down. end stays 0 for the other slots.
	end := make([]int32, dir)
	var off int32
	for s := range t.slots {
		if sl := &t.slots[s]; sl.cnt > 1 {
			sl.ref = off
			off += sl.cnt
			end[s] = off
		}
	}
	// Pass 2: scatter the repeated keys' row ids into their runs, last
	// row first, so each run ends up in input order.
	t.rows = make([]int32, off)
	for j := n - 1; j >= 0; j-- {
		s := slotOf[j]
		if e := end[s]; e > 0 {
			i := j
			if ids != nil {
				i = int(ids[j])
			}
			end[s] = e - 1
			t.rows[e-1] = int32(i)
		}
	}
	return t, nil
}

// find returns key's slot (h = Hash(key)): its own, or the empty slot that
// ends its probe sequence, whose cnt is 0. The directory is never full
// (load ≤ 0.5), so the walk ends.
func (t *JoinTable) find(key int64, h uint64) *slot {
	s := h >> t.shift
	for {
		sl := &t.slots[s]
		if sl.cnt == 0 || sl.key == key {
			return sl
		}
		s = (s + 1) & t.mask
	}
}

// Lookup returns the build-row ids matching key (h = Hash(key)). The
// returned slice aliases the table — a one-row key's slot, or the
// payload run of a repeated one — so it is read-only: zero allocations,
// valid for the table's lifetime.
func (t *JoinTable) Lookup(key int64, h uint64) []int32 {
	if len(t.slots) == 0 {
		return nil
	}
	switch sl := t.find(key, h); sl.cnt {
	case 0:
		return nil
	case 1:
		return unsafe.Slice(&sl.ref, 1)
	default:
		return t.rows[sl.ref : sl.ref+sl.cnt]
	}
}

// Probe matches a batch of keys (hashes[p] = Hash(keys[p])) and appends
// one (p, build row) pair to (candO, candI) per match, in ascending batch
// position p and, within a key, ascending build row. It returns the
// extended slices; they allocate only to grow.
func (t *JoinTable) Probe(keys []int64, hashes []uint64, candO, candI []int32) ([]int32, []int32) {
	if len(t.slots) == 0 {
		return candO, candI
	}
	if len(t.rows) == 0 {
		// No key repeats: at most one match a key, written whether or
		// not it hits; a miss's empty slot has cnt 0 and the next key
		// overwrites the pair.
		n0 := len(candO)
		candO = slices.Grow(candO, len(keys))[:n0+len(keys)]
		candI = slices.Grow(candI, len(keys))[:n0+len(keys)]
		o, in := candO[n0:], candI[n0:]
		w := 0
		for p, k := range keys {
			sl := t.find(k, hashes[p])
			o[w], in[w] = int32(p), sl.ref
			w += int(sl.cnt)
		}
		return candO[:n0+w], candI[:n0+w]
	}
	for p, k := range keys {
		switch sl := t.find(k, hashes[p]); sl.cnt {
		case 0:
		case 1:
			candO = append(candO, int32(p))
			candI = append(candI, sl.ref)
		default:
			for _, r := range t.rows[sl.ref : sl.ref+sl.cnt] {
				candO = append(candO, int32(p))
				candI = append(candI, r)
			}
		}
	}
	return candO, candI
}

// Bytes reports the exact heap footprint of the directory and payload —
// what the memory broker should account for this table.
func (t *JoinTable) Bytes() int64 {
	return int64(len(t.slots))*slotBytes + int64(len(t.rows))*4
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
