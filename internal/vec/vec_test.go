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

// goCmp is a Cmp and its negation, as the callers' Go loops decide it.
func goCmp(cmp Cmp, neg bool, a, b int64) bool {
	return (cmp&LT != 0 && a < b || cmp&EQ != 0 && a == b) != neg
}

// sameIDs asserts that the loop kept exactly the ids want keeps of the
// rows it took, one by one, having taken done rows of the rows, done a
// multiple of block, and every whole block unless one holds an id outside
// the columns (stop, the position of the first such id, or -1).
func sameIDs(t *testing.T, label string, got []int32, done, rows, block, stop int, want []int32) {
	t.Helper()
	wantDone := rows &^ (block - 1)
	if stop >= 0 {
		wantDone = stop &^ (block - 1)
	}
	if done != wantDone {
		t.Fatalf("%s: done %d of %d rows, want %d", label, done, rows, wantDone)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: kept %d ids %v, the Go loop %d %v", label, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d is %d, the Go loop's %d (kept %v, want %v)", label, i, got[i], want[i], got, want)
		}
	}
}

// floatsOf draws rows values from the specials, so lanes meet NaN, ±0 and
// ±Inf next to ordinary values and the constants.
func floatsOf(rng *rand.Rand, rows int) []float64 {
	specials := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 1, -1, 0.5, 2}
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = specials[rng.Intn(len(specials))]
	}
	return vals
}

// The dense float loop against the Go range test, id by id, at every
// length up to four blocks and a bit, with both values of neg and ranges
// that keep every row and none: a column of one value against it, lo > hi
// and NaN bounds.
func TestFloatLanes(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(5))
	consts := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 0.5, 1}
	for rows := 0; rows <= 33; rows++ {
		cols := [][]float64{floatsOf(rng, rows), make([]float64, rows)} // random, and all +0
		for _, vals := range cols {
			for _, lo := range consts {
				for _, hi := range consts {
					for _, neg := range []bool{false, true} {
						id := int32(rng.Intn(100))
						var want []int32
						for i, v := range vals {
							if (v >= lo && v <= hi) != neg {
								want = append(want, id+int32(i))
							}
						}
						sel := make([]int32, rows)
						n, done := BetweenFloat(vals, id, lo, hi, neg, sel)
						sameIDs(t, fmt.Sprintf("BetweenFloat %d rows [%v, %v] neg %v", rows, lo, hi, neg), sel[:n], done, rows, 8, -1, clip(want, id+int32(done)))
					}
				}
			}
		}
	}
}

// clip keeps the ids of want below end: what a loop that took the rows
// up to end keeps.
func clip(want []int32, end int32) []int32 {
	return slices.DeleteFunc(slices.Clone(want), func(r int32) bool { return r >= end })
}

// CmpCols against goCmp, id by id, over columns that cross the int64
// extremes, equal columns (EQ keeps all, LT none) and every length up to
// four blocks and a bit.
func TestCmpColsLanes(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(6))
	ext := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64}
	for rows := 0; rows <= 33; rows++ {
		a, b := make([]int64, rows), make([]int64, rows)
		for i := range a {
			a[i], b[i] = ext[rng.Intn(len(ext))], ext[rng.Intn(len(ext))]
		}
		for _, bs := range [][]int64{b, a} {
			for _, cmp := range []Cmp{LT, EQ, LE} {
				for _, neg := range []bool{false, true} {
					id := int32(rng.Intn(100))
					var want []int32
					for i := range a {
						if goCmp(cmp, neg, a[i], bs[i]) {
							want = append(want, id+int32(i))
						}
					}
					sel := make([]int32, rows)
					n, done := CmpCols(a, bs, id, cmp, neg, sel)
					sameIDs(t, fmt.Sprintf("CmpCols %d rows cmp %d neg %v", rows, cmp, neg), sel[:n], done, rows, 8, -1, clip(want, id+int32(done)))
				}
			}
		}
	}
}

// EqCodes against the Go compare, id by id, at every length up to four
// blocks of sixteen and a bit, with a present code, an absent one (none
// pass, or all under neg) and a column of one code (all pass, or none).
func TestEqCodesLanes(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(7))
	for rows := 0; rows <= 49; rows++ {
		codes := make([]int32, rows)
		for i := range codes {
			codes[i] = int32(rng.Intn(5))
		}
		for _, col := range [][]int32{codes, make([]int32, rows)} {
			for _, code := range []int32{0, 3, 9, -1} {
				for _, neg := range []bool{false, true} {
					id := int32(rng.Intn(100))
					var want []int32
					for i, c := range col {
						if (c == code) != neg {
							want = append(want, id+int32(i))
						}
					}
					sel := make([]int32, rows)
					n, done := EqCodes(col, id, code, neg, sel)
					sameIDs(t, fmt.Sprintf("EqCodes %d rows code %d neg %v", rows, code, neg), sel[:n], done, rows, 16, -1, clip(want, id+int32(done)))
				}
			}
		}
	}
}

// The gather loops against the Go loops over a selection, id by id: every
// length up to four blocks and a bit, ids in a shuffled order, a compare
// that keeps all and one that keeps none, each with and without neg, and
// selections with an id
// outside the columns at each position, before whose block the loop
// stops.
func TestSelLanes(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(8))
	const cols = 40
	fv := floatsOf(rng, cols)
	a, b := make([]int64, cols), make([]int64, cols)
	for i := range a {
		a[i], b[i] = rng.Int63n(5)-2, rng.Int63n(5)-2
	}
	type loop struct {
		name string
		run  func(sel []int32) (n, done int)
		keep func(r int32) bool
	}
	var loops []loop
	for _, r := range [][2]float64{{-1, 1}, {math.Inf(-1), math.Inf(1)}, {1, -1}, {math.NaN(), 1}, {math.Inf(-1), 0}} {
		lo, hi := r[0], r[1]
		for _, neg := range []bool{false, true} {
			loops = append(loops, loop{fmt.Sprintf("BetweenFloatSel [%v, %v] neg %v", lo, hi, neg),
				func(sel []int32) (int, int) { return BetweenFloatSel(fv, lo, hi, neg, sel) },
				func(r int32) bool { return (fv[r] >= lo && fv[r] <= hi) != neg }})
		}
	}
	for _, bs := range [][]int64{b, a} {
		for _, cmp := range []Cmp{LT, EQ, LE} {
			for _, neg := range []bool{false, true} {
				loops = append(loops, loop{fmt.Sprintf("CmpColsSel cmp %d neg %v", cmp, neg),
					func(sel []int32) (int, int) { return CmpColsSel(a, bs, cmp, neg, sel) },
					func(r int32) bool { return goCmp(cmp, neg, a[r], bs[r]) }})
			}
		}
	}
	for _, l := range loops {
		for rows := 0; rows <= 33; rows++ {
			ids := rng.Perm(cols)[:rows]
			for bad := -1; bad < rows; bad++ {
				sel := make([]int32, rows)
				for i, r := range ids {
					sel[i] = int32(r)
				}
				if bad >= 0 {
					sel[bad] = []int32{cols, math.MaxInt32, -1, math.MinInt32}[rng.Intn(4)]
				}
				in := slices.Clone(sel)
				n, done := l.run(sel)
				var want []int32
				for _, r := range in[:done] {
					if l.keep(r) {
						want = append(want, r)
					}
				}
				stop := bad
				if stop >= 0 && stop >= rows&^7 {
					stop = -1 // in the partial block the loop never takes
				}
				sameIDs(t, fmt.Sprintf("%s %d rows, outside id at %d", l.name, rows, bad), sel[:n], done, rows, 8, stop, want)
			}
		}
	}
}

// BenchmarkLoops prices each loop per row over 4096-row morsels of a
// 64 Ki-row column: KeepRange, the float range (and its negation, both
// entries), the two-column and code compares at about a 50 % pass rate, and the two Bloom loops against a 512 KiB
// filter at about half its bits set. CI gates them on 0 allocs/op.
func BenchmarkLoops(b *testing.B) {
	const morsel, rows = 4096, 1 << 16
	rng := rand.New(rand.NewSource(4))
	vals, keys, other := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	floats, codes := make([]float64, rows), make([]int32, rows)
	for i := range vals {
		vals[i], keys[i], other[i] = rng.Int63n(100), rng.Int63(), rng.Int63n(100)
		floats[i], codes[i] = rng.Float64(), int32(rng.Intn(2))
	}

	words, shift := filterWords(rng, 16)
	sel := make([]int32, morsel)
	fill := func(lo int) {
		for k := range sel {
			sel[k] = int32(lo + k)
		}
	}
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
		run(b, func(lo int) (int, int) { fill(lo); return BloomSel(words, shift, keys, sel) })
	})
	for _, neg := range []bool{false, true} {
		suffix := ""
		if neg {
			suffix = "-neg"
		}
		b.Run("between-float"+suffix, func(b *testing.B) {
			run(b, func(lo int) (int, int) { return BetweenFloat(floats[lo:lo+morsel], int32(lo), 0.25, 0.75, neg, sel) })
		})
		b.Run("between-float-sel"+suffix, func(b *testing.B) {
			run(b, func(lo int) (int, int) { fill(lo); return BetweenFloatSel(floats, 0.25, 0.75, neg, sel) })
		})
	}
	b.Run("cmp-cols", func(b *testing.B) {
		run(b, func(lo int) (int, int) {
			return CmpCols(vals[lo:lo+morsel], other[lo:lo+morsel], int32(lo), LT, false, sel)
		})
	})
	b.Run("cmp-cols-sel", func(b *testing.B) {
		run(b, func(lo int) (int, int) { fill(lo); return CmpColsSel(vals, other, LT, false, sel) })
	})
	b.Run("eq-codes", func(b *testing.B) {
		run(b, func(lo int) (int, int) { return EqCodes(codes[lo:lo+morsel], int32(lo), 1, false, sel) })
	})
}
