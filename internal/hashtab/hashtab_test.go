package hashtab

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// buildRef is the map-based reference the flat join table must match:
// key -> build-row ids in ascending insert order.
func buildRef(keys []int64, ids []int32) map[int64][]int32 {
	m := make(map[int64][]int32)
	if ids == nil {
		for i, k := range keys {
			m[k] = append(m[k], int32(i))
		}
		return m
	}
	for _, i := range ids {
		m[keys[i]] = append(m[keys[i]], i)
	}
	return m
}

// checkAgainstRef probes every distinct key plus a sample of absent keys
// and requires exact payload equality (values and order).
func checkAgainstRef(t *testing.T, keys []int64, ids []int32, probes []int64) {
	t.Helper()
	hashes := HashVec(keys, nil)
	tab, err := Build(keys, hashes, ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRef(keys, ids)
	seen := map[int64]bool{}
	for k, want := range ref {
		got := tab.Lookup(k, Hash(k))
		if len(got) != len(want) {
			t.Fatalf("key %d: %d rows, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d row %d: %d, want %d (payload order must match insert order)",
					k, i, got[i], want[i])
			}
		}
		seen[k] = true
	}
	for _, k := range probes {
		if seen[k] {
			continue
		}
		if got := tab.Lookup(k, Hash(k)); got != nil {
			t.Fatalf("absent key %d returned %v", k, got)
		}
	}
	n := len(keys)
	if ids != nil {
		n = len(ids)
	}
	if len(tab.rows) != n {
		t.Fatalf("rows = %d, want %d", len(tab.rows), n)
	}
	if n > 0 && tab.Bytes() <= 0 {
		t.Fatalf("Bytes = %d on a non-empty table", tab.Bytes())
	}
}

func TestJoinTableBasic(t *testing.T) {
	checkAgainstRef(t, nil, nil, []int64{0, 1, -1})
	checkAgainstRef(t, []int64{0}, nil, []int64{0, 1, math.MinInt64})
	checkAgainstRef(t, []int64{7, 7, 7, 7}, nil, []int64{7, 8})
	checkAgainstRef(t, []int64{0, -1, math.MaxInt64, math.MinInt64, 0},
		nil, []int64{0, -1, 1, 2})
}

func TestJoinTableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5000)
		dom := int64(1 + rng.Intn(2*n)) // heavy duplicates at small domains
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(dom) - dom/2
		}
		probes := make([]int64, 100)
		for i := range probes {
			probes[i] = rng.Int63() - math.MaxInt64/2
		}
		checkAgainstRef(t, keys, nil, probes)
		// Subset build (Build's ids argument, ascending): every third
		// row.
		var ids []int32
		for i := 0; i < n; i += 3 {
			ids = append(ids, int32(i))
		}
		checkAgainstRef(t, keys, ids, probes)
	}
}

// TestJoinTableTagCollisions crafts distinct keys whose hashes share the
// directory start slot AND the 8-bit tag, so the probe loop must fall
// through to full key comparison to separate them.
func TestJoinTableTagCollisions(t *testing.T) {
	const want = 8
	base := Hash(12345)
	dir := dirSize(want * 4)
	shift := 64 - uint(len64(dir))
	var keys []int64
	for k := int64(0); int64(len(keys)) < want && k < 40_000_000; k++ {
		h := Hash(k)
		if h>>shift == base>>shift && tagOf(h) == tagOf(base) {
			keys = append(keys, k)
		}
	}
	if len(keys) < 2 {
		t.Skip("could not craft enough colliding keys (hash changed?)")
	}
	// Duplicate each colliding key so payload runs are exercised too.
	keys = append(keys, keys...)
	checkAgainstRef(t, keys, nil, []int64{12345})
}

func len64(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func TestRowCountGuard(t *testing.T) {
	if err := checkRows(MaxRows); err != nil {
		t.Fatalf("MaxRows rows must be accepted: %v", err)
	}
	if err := checkRows(MaxRows + 1); err != ErrTooManyRows {
		t.Fatalf("2^31 rows must be rejected, got %v", err)
	}
}

// TestAggTableRandom checks the table against a map of exact references:
// counts add as integers, and each group's sum must be the correctly
// rounded exact total of its quantized inputs (see exactSum), through
// directory growth.
func TestAggTableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tab := NewAgg(rng.Intn(8)) // tiny hints force growth
		cnts := map[int64]int64{}
		vals := map[int64][]float64{}
		n := 1 + rng.Intn(20000)
		dom := int64(1 + rng.Intn(n))
		for i := 0; i < n; i++ {
			k := rng.Int63n(dom) - dom/2
			c := int64(rng.Intn(3))
			x := rng.NormFloat64()
			tab.Add(k, c, x)
			cnts[k] += c
			vals[k] = append(vals[k], x)
		}
		if tab.Len() != len(cnts) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(cnts))
		}
		got := 0
		tab.Each(func(k, c int64, s Sum) {
			got++
			if c != cnts[k] {
				t.Fatalf("key %d: cnt %d, want %d", k, c, cnts[k])
			}
			if want := exactSum(vals[k]); math.Float64bits(s.Float64()) != math.Float64bits(want) {
				t.Fatalf("key %d: sum %v, want the exact %v", k, s.Float64(), want)
			}
		})
		if got != len(cnts) {
			t.Fatalf("Each visited %d groups, want %d", got, len(cnts))
		}
	}
}

func TestAggTableNilSafety(t *testing.T) {
	var tab *AggTable
	if tab.Len() != 0 || tab.Bytes() != 0 {
		t.Fatal("nil AggTable must report empty")
	}
	tab.Each(func(int64, int64, Sum) { t.Fatal("nil AggTable must not iterate") })
}

// FuzzJoinTable decodes the fuzz input as int64 keys and requires the
// flat table to match the map reference on every present and absent key.
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []int64
		for len(data) >= 8 && len(keys) < 4096 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		hashes := HashVec(keys, nil)
		tab, err := Build(keys, hashes, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildRef(keys, nil)
		for k, want := range ref {
			got := tab.Lookup(k, Hash(k))
			if len(got) != len(want) {
				t.Fatalf("key %d: %d rows, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("key %d row %d: %d, want %d", k, i, got[i], want[i])
				}
			}
		}
		for _, probe := range []int64{0, -1, math.MaxInt64} {
			if _, present := ref[probe]; !present && tab.Lookup(probe, Hash(probe)) != nil {
				t.Fatalf("absent key %d reported present", probe)
			}
		}
	})
}
