package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewForNDV(10_000)
	for i := int64(0); i < 10_000; i++ {
		f.Add(i * 7)
	}
	for i := int64(0); i < 10_000; i++ {
		if !f.MayContainHash(KeyHash(i * 7)) {
			t.Fatalf("false negative for key %d", i*7)
		}
	}
}

// keyFamilies are the key shapes of the FPR contract: key(i) is the i-th
// key of the family. Random keys are what FPR's formula assumes; the
// others are the arithmetic shapes real join keys take and a multiply hash
// must still spread: TPC-H's orderkeys (eight used keys out of every 32),
// and strides that leave the low 10, 20 and 32 key bits constant or sparse.
var keyFamilies = []struct {
	name string
	key  func(i int64) int64
}{
	{"random", func(i int64) int64 { return int64(splitmix(uint64(i))) }},
	{"orderkey", func(i int64) int64 { return i/8*32 + i%8 + 1 }},
	{"stride1000", func(i int64) int64 { return i * 1000 }},
	{"stride2^20", func(i int64) int64 { return i << 20 }},
	{"stride2^32", func(i int64) int64 { return i << 32 }},
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestFalsePositiveRateNearTheory is the blocked layout's FPR contract at
// the executor's 16 bits per key (BitsForNDV): over every key family and
// build size, a filter holding keys 0..n-1 of the family is probed with
// the next 200 000 keys of the same family, none of them members. The
// measured rate stays within 1.5× FPR on random keys — a blocked filter
// runs about 1.2× above it — and within 2.5× on every family. A broken
// layout or hash (bits not spread within a word, words not spread over the
// filter) misses both bounds by far.
func TestFalsePositiveRateNearTheory(t *testing.T) {
	const probes = 200_000
	for _, fam := range keyFamilies {
		for _, n := range []int64{1000, 11_457, 28_964, 262_144} {
			f := New(BitsForNDV(uint64(n)))
			for i := int64(0); i < n; i++ {
				f.Add(fam.key(i))
			}
			fps := 0
			for i := n; i < n+probes; i++ {
				if f.MayContainHash(KeyHash(fam.key(i))) {
					fps++
				}
			}
			theory := FPR(uint64(n), f.NBits())
			ratio := float64(fps) / probes / theory
			bound := 2.5
			if fam.name == "random" {
				bound = 1.5
			}
			t.Logf("%-10s n=%-7d bits/key=%4.1f FPR %.4f theory %.4f ratio %.2f",
				fam.name, n, float64(f.NBits())/float64(n), float64(fps)/probes, theory, ratio)
			if ratio > bound {
				t.Errorf("%s, n=%d: measured FPR %.4f is %.2f× theory %.4f; bound %.1f×",
					fam.name, n, float64(fps)/probes, ratio, theory, bound)
			}
		}
	}
}

// TestFalsePositiveRateSmallDomains: the filters TPC-H builds on its
// smallest tables hold a few keys of a small dense domain — nation keys
// 0..24, say — and are probed with the rest of it. Per domain and subset
// size, over many random subsets, the measured rate stays within 2.5× FPR.
// A hash whose word or bit positions are correlated across consecutive
// keys fails here long before the strided families notice.
func TestFalsePositiveRateSmallDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ domain, keys int }{{25, 2}, {25, 5}, {25, 10}, {150, 16}, {1000, 40}} {
		probes, fps := 0, 0
		for trial := 0; trial < 2000; trial++ {
			perm := rng.Perm(c.domain)
			f := New(BitsForNDV(uint64(c.keys)))
			for _, k := range perm[:c.keys] {
				f.Add(int64(k))
			}
			for _, k := range perm[c.keys:] {
				probes++
				if f.MayContainHash(KeyHash(int64(k))) {
					fps++
				}
			}
		}
		theory := FPR(uint64(c.keys), BitsForNDV(uint64(c.keys)))
		ratio := float64(fps) / float64(probes) / theory
		t.Logf("%d of %d keys: FPR %.4f theory %.4f ratio %.2f", c.keys, c.domain, float64(fps)/float64(probes), theory, ratio)
		if ratio > 2.5 {
			t.Errorf("%d of %d keys: measured FPR %.4f is %.2f× theory %.4f; bound 2.5×",
				c.keys, c.domain, float64(fps)/float64(probes), ratio, theory)
		}
	}
}

// Property: the three tests of one filter — the fused FilterSel over a key
// column, FilterSelHashes over precomputed KeyHashes, and per-row
// MayContainHash — keep the same rows of any selection.
func TestFilterSelAgreesWithMayContain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(4 * n))
		}
		f := New(uint64(64 << rng.Intn(10)))
		for _, v := range vals[:n/2] {
			f.Add(v)
		}
		var sel []int32
		for r := 0; r < n; r++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(r))
			}
		}
		var want []int32
		hashes := make([]uint64, len(sel))
		for i, r := range sel {
			if f.MayContainHash(KeyHash(vals[r])) {
				want = append(want, r)
			}
			hashes[i] = KeyHash(vals[r])
		}
		got := f.FilterSel(vals, append([]int32(nil), sel...))
		gotH := f.FilterSelHashes(hashes, append([]int32(nil), sel...))
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(gotH) != fmt.Sprint(want) {
			t.Fatalf("trial %d: FilterSel kept %d rows, FilterSelHashes %d, MayContain %d",
				trial, len(got), len(gotH), len(want))
		}
	}
}

func TestFPRFormula(t *testing.T) {
	// m = 8n with k = 2 gives (1 - e^{-1/4})^2 ≈ 0.0489.
	got := FPR(1000, 8000)
	want := math.Pow(1-math.Exp(-0.25), 2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("FPR(1000,8000) = %v, want %v", got, want)
	}
	if FPR(0, 8000) != 0 {
		t.Fatalf("FPR with zero keys should be 0, got %v", FPR(0, 8000))
	}
	if FPR(10, 0) != 1 {
		t.Fatalf("FPR with zero bits should be 1, got %v", FPR(10, 0))
	}
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {100, 128}, {1 << 20, 1 << 20}, {(1 << 20) + 1, 1 << 21},
	}
	for _, c := range cases {
		if got := New(c.in).NBits(); got != c.want {
			t.Errorf("New(%d).NBits() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSaturationMonotone(t *testing.T) {
	f := New(1 << 12)
	prev := f.Saturation()
	if prev != 0 {
		t.Fatalf("empty filter saturation = %v, want 0", prev)
	}
	for i := int64(0); i < 2000; i += 100 {
		for j := int64(0); j < 100; j++ {
			f.Add(i + j)
		}
		s := f.Saturation()
		if s < prev {
			t.Fatalf("saturation decreased: %v -> %v", prev, s)
		}
		prev = s
	}
	if prev <= 0 || prev > 1 {
		t.Fatalf("saturation out of range: %v", prev)
	}
}

// Property: membership is always true for inserted keys, for arbitrary keys
// and filter sizes.
func TestQuickNoFalseNegatives(t *testing.T) {
	prop := func(keys []int64, sizeSeed uint16) bool {
		f := New(uint64(sizeSeed))
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.MayContainHash(KeyHash(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewForNDV(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(int64(i))
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := NewForNDV(1 << 20)
	for i := int64(0); i < 1<<20; i++ {
		f.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContainHash(KeyHash(int64(i)))
	}
}

// BenchmarkFilterSel prices the scan's fused probe per tested row at the
// workloads' pass rate: a filter of the given size holds, at 16 bits per
// key, keys drawn from a domain 20 times larger, and one morsel of 4096
// random keys from that domain is tested, so about 6 % of rows pass (5 %
// members, the rest false positives). CI gates it on 0 allocs/op.
func BenchmarkFilterSel(b *testing.B) {
	const morsel = 4096
	for _, bytes := range []int{16 << 10, 512 << 10, 4 << 20} {
		name := fmt.Sprintf("%dKiB", bytes>>10)
		if bytes >= 1<<20 {
			name = fmt.Sprintf("%dMiB", bytes>>20)
		}
		b.Run(name, func(b *testing.B) {
			keys := int64(bytes / 2) // 16 bits each
			f := New(BitsForNDV(uint64(keys)))
			rng := rand.New(rand.NewSource(1))
			for i := int64(0); i < keys; i++ {
				f.Add(rng.Int63n(20 * keys))
			}
			vals := make([]int64, 1<<16)
			for i := range vals {
				vals[i] = rng.Int63n(20 * keys)
			}
			sel := make([]int32, morsel)
			kept := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * morsel % len(vals)
				for k := range sel {
					sel[k] = int32(lo + k)
				}
				kept += len(f.FilterSel(vals, sel))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/morsel, "ns/row")
			b.ReportMetric(float64(kept)/float64(b.N)/morsel, "pass")
		})
	}
}

// BitsForNDV names the size the executor has built since every filter
// became one bloom.Filter: NewForNDV at twice the NDV, 16 bits per key
// rounded up to a power of two.
func TestBitsForNDV(t *testing.T) {
	for _, n := range []uint64{0, 1, 3, 4, 5, 1000, 11_471, 262_144, 262_145} {
		if got, want := BitsForNDV(n), NewForNDV(2*max(n, 1)).NBits(); got != want {
			t.Errorf("BitsForNDV(%d) = %d, want %d", n, got, want)
		}
	}
}
