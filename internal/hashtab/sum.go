package hashtab

import (
	"math"
	"math/bits"
)

// Sum is the engine's one float accumulator: a sum whose value depends
// only on the multiset of numbers added, never on their order or on how
// they were split across partial Sums that were later merged. Float
// addition rounds after every step, so "per-worker partials merged in
// worker order" gives a different last bit whenever morsels land on
// different workers; integer addition does not round, so Sum converts
// every input to fixed point once and adds integers.
//
// Representation: a 128-bit two's-complement integer (hi, lo) counting
// units of 2⁻⁴⁰. Each finite input below 2⁸⁵ in magnitude is rounded —
// once, to nearest, ties to even — to a whole number of units and added
// with carry; that rounding is a function of the input alone. Merge is
// 128-bit integer addition. Float64 rounds the exact integer total to the
// nearest float64, once.
//
// Resolution and range: inputs are quantized to 2⁻⁴⁰ ≈ 9.1·10⁻¹³, so each
// contributes an absolute error of at most 2⁻⁴¹ and the total is exact in
// the quantized values. An input that is NaN, ±Inf, or at least
// 2⁸⁵ ≈ 3.9·10²⁵ in magnitude does not fit; it goes to the exc side slot
// as NaN or the signed infinity instead, where float addition has only
// three outcomes (+Inf, −Inf, NaN) and is therefore order-independent
// too. A total beyond ±2⁸⁷ wraps; that takes more than four inputs at the
// top of the range.
//
// The zero value is an empty sum.
type Sum struct {
	hi  int64
	lo  uint64
	exc float64
}

// sumBytes is unsafe.Sizeof(Sum{}), spelled out so AggTable.Bytes needs no
// unsafe import; the unit test pins the two together.
const sumBytes = 24

const (
	sumFracBits = 40
	sumUnit     = 1 << sumFracBits // units per 1.0
	// sumLimit is the first magnitude that no longer fits: mantissa (53
	// bits) shifted to 2⁻⁴⁰ units would reach past bit 125.
	sumLimit = 1 << 85
	// sumFastLimit bounds the inputs whose unit count fits an int64, where
	// scaling, rounding and conversion are three float instructions.
	sumFastLimit = 1 << (62 - sumFracBits)
)

// Add folds x into the sum. It is small enough to inline into the fold
// loops; the in-range test is written as two compares because NaN fails
// both.
func (s *Sum) Add(x float64) {
	if x < sumFastLimit && x > -sumFastLimit {
		// x·2⁴⁰ is exact (a power-of-two scale), RoundToEven is exact, and
		// the result is below 2⁶², so the conversion is exact.
		s.addUnits(int64(math.RoundToEven(x * sumUnit)))
		return
	}
	s.addWide(x)
}

// addUnits adds a sign-extended 64-bit unit count to the 128-bit total.
func (s *Sum) addUnits(v int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(v), 0)
	s.hi += v>>63 + int64(carry)
}

// addWide is Add for inputs outside the int64 fast path: magnitudes from
// 2²² up to the range limit are shifted into place from their mantissa
// (no rounding — they have no bits below 2⁻³⁰), everything else lands in
// the exc slot.
func (s *Sum) addWide(x float64) {
	ax := math.Abs(x)
	if !(ax < sumLimit) { // NaN, ±Inf, or out of range
		if !math.IsNaN(x) {
			x = math.Copysign(math.Inf(1), x)
		}
		s.exc += x
		return
	}
	// ax = mant·2^(E−1075) with E the biased exponent, so in 2⁻⁴⁰ units it
	// is mant shifted left by E−1035: 10 to 72 places for 2²² ≤ ax < 2⁸⁵.
	b := math.Float64bits(ax)
	mant := b&(1<<52-1) | 1<<52
	shift := uint(b>>52) - (1075 - sumFracBits)
	var hi, lo uint64
	if shift < 64 {
		hi, lo = mant>>(64-shift), mant<<shift
	} else {
		hi = mant << (shift - 64)
	}
	if x < 0 {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, borrow)
	}
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, lo, 0)
	s.hi += int64(hi) + int64(carry)
}

// Merge folds another partial sum in.
func (s *Sum) Merge(o Sum) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, o.lo, 0)
	s.hi += o.hi + int64(carry)
	s.exc += o.exc
}

// Float64 rounds the total to the nearest float64. A sum that absorbed a
// NaN, or infinities of both signs, reports the canonical NaN (inputs'
// NaN payloads would otherwise make the bits depend on order).
func (s Sum) Float64() float64 {
	if s.exc != 0 { // ±Inf or NaN; exc never holds a finite non-zero
		if math.IsNaN(s.exc) {
			return math.NaN()
		}
		return s.exc
	}
	hi, lo := uint64(s.hi), s.lo
	neg := s.hi < 0
	if neg {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, borrow)
	}
	// Normalize the 128-bit magnitude to a 64-bit mantissa with a sticky
	// low bit, then let the uint64→float64 conversion do the one
	// round-to-nearest-even: bits 0–10 of m are below float64's 53-bit
	// precision, so a sticky bit 0 decides ties exactly as the discarded
	// tail would.
	var m uint64
	exp := -sumFracBits
	if hi == 0 {
		m = lo
	} else {
		n := uint(bits.LeadingZeros64(hi))
		m = hi<<n | lo>>(64-n)
		if lo<<n != 0 {
			m |= 1
		}
		exp += 64 - int(n)
	}
	f := math.Ldexp(float64(m), exp)
	if neg {
		f = -f
	}
	return f
}
