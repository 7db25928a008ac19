package hashtab

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// exactSum is the arbitrary-precision reference for Sum over in-range
// inputs: every value rounded to the nearest multiple of 2⁻⁴⁰ (ties to
// even), the multiples added as big integers, the total rounded once to
// float64.
func exactSum(xs []float64) float64 {
	total := new(big.Int)
	scale := new(big.Float).SetMantExp(big.NewFloat(1), sumFracBits)
	half := big.NewFloat(0.5)
	for _, x := range xs {
		f := new(big.Float).SetPrec(200).SetFloat64(x)
		f.Mul(f, scale)
		// Round to nearest even integer: floor, then inspect the remainder.
		fl, _ := f.Int(nil) // truncates toward zero
		if f.Sign() < 0 && new(big.Float).SetInt(fl).Cmp(f) != 0 {
			fl.Sub(fl, big.NewInt(1))
		}
		rem := new(big.Float).SetPrec(200).Sub(f, new(big.Float).SetInt(fl))
		if c := rem.Cmp(half); c > 0 || (c == 0 && fl.Bit(0) == 1) {
			fl.Add(fl, big.NewInt(1))
		}
		total.Add(total, fl)
	}
	out := new(big.Float).SetPrec(53).SetMode(big.ToNearestEven).SetInt(total)
	out.SetMantExp(out, -sumFracBits)
	f, _ := out.Float64()
	return f
}

func sumOf(xs []float64) Sum {
	var s Sum
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// revenueShaped draws mixed-sign values with magnitudes from cents to
// 10¹³, crossing the fast-path boundary at 2²².
func revenueShaped(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		x := rng.Float64() * math.Pow(10, float64(rng.Intn(16)-2))
		if rng.Intn(3) == 0 {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// The value of a Sum is a function of the multiset added: any shuffle and
// any split into partials merged in any order give the same bits, and
// those bits are the exactly rounded total.
func TestSumOrderAndPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := revenueShaped(rng, 20_000)
	want := exactSum(xs)
	if got := sumOf(xs).Float64(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sum = %v, exact reference %v", got, want)
	}
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		parts := make([]Sum, 1+rng.Intn(8))
		for _, x := range xs {
			parts[rng.Intn(len(parts))].Add(x)
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		var merged Sum
		for _, p := range parts {
			merged.Merge(p)
		}
		if got := merged.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: %d-way split gives %v, want %v", trial, len(parts), got, want)
		}
	}
}

func TestSumExactCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"decimal cancellation", []float64{0.1, 0.2, -0.3}, 0},
		{"negatives", []float64{-1.5, -2.25, 0.75}, -3},
		{"negative zero", []float64{math.Copysign(0, -1)}, 0},
		{"fast path carries into hi", []float64{0x1p21, 0x1p21, 0x1p21, 0x1p21, 0x1p21, 0x1p21, 0x1p21, 0x1p21}, 0x1p24},
		{"fast path borrows from hi", []float64{-0x1p21, -0x1p21, -0x1p21, -0x1p21, -0x1p21, -0x1p21, -0x1p21, -0x1p21, 1}, 1 - 0x1p24},
		{"wide path carries into hi", []float64{0x1p23, 0x1p23, 0x1p23}, 3 * 0x1p23},
		{"wide path borrows from hi", []float64{0x1p23, -0x1p24}, -0x1p23},
		{"below resolution", []float64{0x1p-42, 0x1p-42}, 0},
		{"tie to even down", []float64{0x1p-41}, 0},
		{"tie to even up", []float64{3 * 0x1p-41}, 2 * 0x1p-40},
		{"fast-path edge", []float64{0x1p22 - 0x1p-30, 0x1p22, -0x1p22}, 0x1p22 - 0x1p-30},
		{"wide path", []float64{1e13, 0.25, -1e13}, 0.25},
		{"largest in range", []float64{0x1p85 - 0x1p32, -(0x1p85 - 0x1p32), 7}, 7},
		{"rounds once", []float64{0x1p53, 1, 1}, 0x1p53 + 2}, // float adds stay at 2⁵³
	} {
		if got := sumOf(tc.xs).Float64(); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: sum%v = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
	}
}

// NaN, infinities and magnitudes from 2⁸⁵ up do not fit the fixed-point
// total; whatever else was added, in whatever order, the outcome is the
// infinity, or NaN when a NaN or both signs were seen.
func TestSumOutOfRange(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	payload := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"+inf", []float64{1, inf, -5}, inf},
		{"-inf", []float64{-inf, 1e20}, -inf},
		{"both infinities", []float64{inf, 2, -inf}, nan},
		{"nan", []float64{3, nan, 4}, nan},
		{"nan payloads", []float64{payload, nan}, nan},
		{"nan beats inf", []float64{inf, payload}, nan},
		{"2^85 saturates", []float64{0x1p85, 1}, inf},
		{"-2^85 saturates", []float64{-0x1p85, 1}, -inf},
		{"max float saturates", []float64{math.MaxFloat64, -1}, inf},
	} {
		want := math.Float64bits(tc.want)
		fwd := sumOf(tc.xs)
		rev := make([]float64, len(tc.xs))
		for i, x := range tc.xs {
			rev[len(rev)-1-i] = x
		}
		var split Sum
		for _, x := range tc.xs { // one partial per input, merged
			var p Sum
			p.Add(x)
			split.Merge(p)
		}
		for how, s := range map[string]Sum{"forward": fwd, "reverse": sumOf(rev), "merged": split} {
			if got := s.Float64(); math.Float64bits(got) != want {
				t.Errorf("%s (%s): %v (%#x), want %v (%#x)", tc.name, how,
					got, math.Float64bits(got), tc.want, want)
			}
		}
	}
}

func TestSumSlotWidth(t *testing.T) {
	if got := unsafe.Sizeof(Sum{}); got != sumBytes {
		t.Fatalf("unsafe.Sizeof(Sum{}) = %d, sumBytes = %d", got, sumBytes)
	}
	tab := NewAgg(100)
	if want := int64(len(tab.tags)) * (1 + 8 + 8 + int64(unsafe.Sizeof(Sum{}))); tab.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d for %d slots", tab.Bytes(), want, len(tab.tags))
	}
}

// Merging tables is integer addition per key: splitting the rows across
// tables any way and merging them in any order gives the table a single
// fold would have built.
func TestAggTableMergeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, groups = 30_000, 37
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(groups)
	}
	xs := revenueShaped(rng, n)
	whole := NewAgg(groups)
	for i, k := range keys {
		whole.Add(k, 1, xs[i])
	}
	want := map[int64]uint64{}
	whole.Each(func(k, _ int64, s Sum) { want[k] = math.Float64bits(s.Float64()) })
	for trial := 0; trial < 10; trial++ {
		parts := make([]*AggTable, 2+rng.Intn(6))
		for i := range parts {
			parts[i] = NewAgg(1)
		}
		for _, i := range rng.Perm(n) {
			parts[rng.Intn(len(parts))].Add(keys[i], 1, xs[i])
		}
		merged := NewAgg(1)
		for _, p := range rng.Perm(len(parts)) {
			parts[p].Each(merged.Merge)
		}
		if merged.Len() != whole.Len() {
			t.Fatalf("trial %d: %d groups, want %d", trial, merged.Len(), whole.Len())
		}
		var total int64
		merged.Each(func(k, c int64, s Sum) {
			total += c
			if got := math.Float64bits(s.Float64()); got != want[k] {
				t.Fatalf("trial %d key %d: merged sum %v differs from the single fold's %v",
					trial, k, s.Float64(), math.Float64frombits(want[k]))
			}
		})
		if total != n {
			t.Fatalf("trial %d: merged counts total %d, want %d", trial, total, n)
		}
	}
}
