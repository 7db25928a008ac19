package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The loops against plain Go versions of the same tests, over every
// length up to four blocks and a bit, so each shape of a last partial
// block meets each lane. The callers' suites (internal/query and
// internal/bloom) compare them with the Go loops they replace.

func needAVX512(t testing.TB) {
	if !AVX512() {
		t.Skip("the CPU lacks AVX-512 F/DQ/VL (or the OS does not save its state): the entries return (0, 0) and the Go loops do all the work")
	}
}

// goKeep is KeepRange's test, row by row.
func goKeep(vals []int64, id int32, low int64, width uint64, neg bool) []int32 {
	var out []int32
	for i, v := range vals {
		if (uint64(v-low) <= width) != neg {
			out = append(out, id+int32(i))
		}
	}
	return out
}

// mayContain is bloom.Filter's test of one key.
func mayContain(words []uint64, shift uint, key int64) bool {
	h := uint64(key) * 0x9e3779b97f4a7c15
	h = (h ^ h<<38) >> shift
	m := uint64(1)<<(h&63) | 1<<(h>>6&63)
	return words[h>>12]&m == m
}

// filterWords is a random filter of 1<<logWords words, about half its
// bits set, with its shift.
func filterWords(rng *rand.Rand, logWords int) ([]uint64, uint) {
	words := make([]uint64, 1<<logWords)
	for i := range words {
		words[i] = rng.Uint64() | rng.Uint64()
	}
	return words, uint(64 - logWords - 12)
}

// checkPrefix asserts that the loop took every whole block of the rows,
// ids id … id+rows-1, and kept exactly the ids of want that they hold.
func checkPrefix(t *testing.T, label string, sel []int32, n, done, rows int, id int32, want []int32) {
	t.Helper()
	if done != rows&^7 {
		t.Fatalf("%s: done %d of %d rows, want %d", label, done, rows, rows&^7)
	}
	want = slices.DeleteFunc(slices.Clone(want), func(r int32) bool { return r >= id+int32(done) })
	if !slices.Equal(sel[:n], want) {
		t.Fatalf("%s: kept %v of the first %d rows, want %v", label, sel[:n], done, want)
	}
}

func TestKeepRange(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		low   int64
		width uint64
	}{
		{10, 20}, {0, 0}, {math.MinInt64, math.MaxUint64}, {math.MaxInt64, 0}, {math.MinInt64, 1 << 63},
	}
	for rows := 0; rows <= 33; rows++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(40)
			if rng.Intn(8) == 0 {
				vals[i] = []int64{math.MinInt64, math.MaxInt64, -1}[rng.Intn(3)]
			}
		}
		for _, c := range cases {
			for _, neg := range []bool{false, true} {
				id := int32(rng.Intn(100))
				want := goKeep(vals, id, c.low, c.width, neg)
				sel := make([]int32, rows)
				n, done := KeepRange(vals, id, c.low, c.width, neg, sel)
				checkPrefix(t, fmt.Sprintf("KeepRange %+v neg %v", c, neg), sel, n, done, rows, id, want)
			}
		}
	}
}

func TestBloomRangeAndSel(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(2))
	for rows := 0; rows <= 33; rows++ {
		words, shift := filterWords(rng, rng.Intn(6))
		vals := make([]int64, rows+5)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		id := int32(rng.Intn(5))
		var want []int32
		for i, v := range vals[id : int(id)+rows] {
			if mayContain(words, shift, v) {
				want = append(want, id+int32(i))
			}
		}
		sel := make([]int32, rows)
		n, done := BloomRange(words, shift, vals[id:int(id)+rows], id, sel)
		checkPrefix(t, "BloomRange", sel, n, done, rows, id, want)

		// The same rows as a selection, in place.
		for i := range sel {
			sel[i] = id + int32(i)
		}
		n, done = BloomSel(words, shift, vals, sel)
		checkPrefix(t, "BloomSel", sel, n, done, rows, id, want)
	}
}

// BloomSel takes no block that holds an id outside vals, negative ones
// included, and keeps the blocks before it.
func TestBloomSelStopsAtOutsideID(t *testing.T) {
	needAVX512(t)
	words, shift := filterWords(rand.New(rand.NewSource(3)), 2)
	vals := make([]int64, 40)
	for i := range vals {
		vals[i] = int64(i)
	}
	for _, bad := range []int32{40, math.MaxInt32, -1, math.MinInt32} {
		for pos := 0; pos < 24; pos++ {
			sel := make([]int32, 24)
			for i := range sel {
				sel[i] = int32(i)
			}
			sel[pos] = bad
			if _, done := BloomSel(words, shift, vals, sel); done != pos&^7 {
				t.Fatalf("id %d at %d: done %d, want %d", bad, pos, done, pos&^7)
			}
		}
	}
}

// BenchmarkLoops prices each loop per row over 4096-row morsels of a
// 64 Ki-row column: KeepRange at a 50 % pass rate, and the two Bloom
// loops against a 512 KiB filter at about half its bits set. CI gates
// them on 0 allocs/op.
func BenchmarkLoops(b *testing.B) {
	const morsel, rows = 4096, 1 << 16
	rng := rand.New(rand.NewSource(4))
	vals, keys := make([]int64, rows), make([]int64, rows)
	for i := range vals {
		vals[i], keys[i] = rng.Int63n(100), rng.Int63()
	}
	words, shift := filterWords(rng, 16)
	sel := make([]int32, morsel)
	run := func(b *testing.B, loop func(lo int) (n, done int)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loop(i * morsel % rows)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/morsel, "ns/row")
	}
	b.Run("keep", func(b *testing.B) {
		run(b, func(lo int) (int, int) { return KeepRange(vals[lo:lo+morsel], int32(lo), 25, 49, false, sel) })
	})
	b.Run("bloom-range", func(b *testing.B) {
		run(b, func(lo int) (int, int) { return BloomRange(words, shift, keys[lo:lo+morsel], int32(lo), sel) })
	})
	b.Run("bloom-sel", func(b *testing.B) {
		run(b, func(lo int) (int, int) {
			for k := range sel {
				sel[k] = int32(lo + k)
			}
			return BloomSel(words, shift, keys, sel)
		})
	})
}
