package bloom

import (
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
		if !f.MayContain(i * 7) {
			t.Fatalf("false negative for key %d", i*7)
		}
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	const n = 50_000
	f := NewForNDV(n)
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[int64]bool, n)
	for len(inserted) < n {
		k := rng.Int63()
		inserted[k] = true
		f.Add(k)
	}
	theory := FPR(f.Inserted(), f.NBits())
	probes, fps := 0, 0
	for probes < 200_000 {
		k := rng.Int63()
		if inserted[k] {
			continue
		}
		probes++
		if f.MayContain(k) {
			fps++
		}
	}
	observed := float64(fps) / float64(probes)
	if observed > 3*theory+0.01 {
		t.Fatalf("observed FPR %.4f far above theoretical %.4f", observed, theory)
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
			if !f.MayContain(k) {
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
		f.MayContain(int64(i))
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
