package hashtab

import (
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"slices"
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

// checkAgainstRef probes every distinct key plus a sample of absent keys,
// one at a time through Lookup and as one batch through Probe, and
// requires exact payload equality (values and order). It also pins the
// table's layout: a payload of exactly the rows of repeated keys, and a
// Bytes of 16 bytes a directory slot plus 4 a payload row.
func checkAgainstRef(t *testing.T, keys []int64, ids []int32, probes []int64) {
	t.Helper()
	hashes := HashVec(keys, nil)
	tab, err := Build(keys, hashes, ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRef(keys, ids)
	seen := map[int64]bool{}
	repeated := 0
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
		if len(want) > 1 {
			repeated += len(want)
		}
	}
	for _, k := range probes {
		if seen[k] {
			continue
		}
		if got := tab.Lookup(k, Hash(k)); got != nil {
			t.Fatalf("absent key %d returned %v", k, got)
		}
	}
	if len(tab.rows) != repeated {
		t.Fatalf("payload = %d rows, want %d (the rows of repeated keys)", len(tab.rows), repeated)
	}
	n := len(keys)
	if ids != nil {
		n = len(ids)
	}
	wantBytes := int64(0)
	if n > 0 {
		wantBytes = 16*int64(dirSize(n)) + 4*int64(repeated)
	}
	if tab.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d (16 B a slot over %d slots, 4 B a payload row over %d)",
			tab.Bytes(), wantBytes, dirSize(n), repeated)
	}
	checkProbe(t, tab, ref, append(slices.Sorted(maps.Keys(ref)), probes...))
}

// checkProbe runs batch through Probe twice — onto empty candidate slices
// and appended to non-empty ones — and requires, in ascending batch
// position, every build row of each key in ascending build order, with the
// prefix left untouched.
func checkProbe(t *testing.T, tab *JoinTable, ref map[int64][]int32, batch []int64) {
	t.Helper()
	var wantO, wantI []int32
	for p, k := range batch {
		for _, r := range ref[k] {
			wantO = append(wantO, int32(p))
			wantI = append(wantI, r)
		}
	}
	hs := HashVec(batch, nil)
	for _, prefix := range []int{0, 3} {
		candO, candI := make([]int32, prefix, prefix+1), make([]int32, prefix, prefix+1)
		for i := range prefix {
			candO[i], candI[i] = -7, -9
		}
		candO, candI = tab.Probe(batch, hs, candO, candI)
		if len(candO) != prefix+len(wantO) || len(candI) != len(candO) {
			t.Fatalf("Probe (prefix %d): %d/%d pairs, want %d", prefix, len(candO)-prefix, len(candI)-prefix, len(wantO))
		}
		for i := range prefix {
			if candO[i] != -7 || candI[i] != -9 {
				t.Fatalf("Probe overwrote the prefix at %d", i)
			}
		}
		for i := range wantO {
			if candO[prefix+i] != wantO[i] || candI[prefix+i] != wantI[i] {
				t.Fatalf("Probe (prefix %d) pair %d: (%d, %d), want (%d, %d)",
					prefix, i, candO[prefix+i], candI[prefix+i], wantO[i], wantI[i])
			}
		}
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

// TestJoinTableProbeShapes checks Probe against buildRef on the three
// shapes it has two loops for: a table in which no key repeats (the
// branch-free loop, no payload), one mixing one-row and repeated keys, and
// one in which every key repeats; each probed with hits, misses and
// repeated probe keys in one batch.
func TestJoinTableProbeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 3000
	for _, shape := range []struct {
		name string
		key  func(i int) int64
	}{
		{"unique", func(i int) int64 { return int64(i)*7919 - 5000 }},
		{"mixed", func(i int) int64 { return int64(i % 2000) }},
		{"duplicate", func(i int) int64 { return int64(i % 700) }},
	} {
		name := shape.name
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = shape.key(i)
		}
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		tab, err := Build(keys, HashVec(keys, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if (name == "unique") != (len(tab.rows) == 0) {
			t.Fatalf("%s: payload of %d rows", name, len(tab.rows))
		}
		batch := make([]int64, 1500)
		for p := range batch {
			if p%3 == 0 {
				batch[p] = rng.Int63() // a miss, almost surely
			} else {
				batch[p] = keys[rng.Intn(n)]
			}
		}
		ref := buildRef(keys, nil)
		checkProbe(t, tab, ref, batch)
		checkProbe(t, tab, ref, nil)
	}
}

// TestJoinTableTagCollisions crafts distinct keys whose hashes share the
// directory start slot — the join directory keeps no tag, so a slot's key
// word is the only thing that tells them apart — and the probe loop must
// walk past the other keys' slots by full key comparison.
func TestJoinTableTagCollisions(t *testing.T) {
	const want = 8
	base := Hash(12345)
	dir := dirSize(want * 4)
	shift := 64 - uint(len64(dir))
	var keys []int64
	for k := int64(0); int64(len(keys)) < want && k < 1_000_000; k++ {
		if k != 12345 && Hash(k)>>shift == base>>shift {
			keys = append(keys, k)
		}
	}
	if len(keys) < want {
		t.Fatalf("crafted %d colliding keys, want %d", len(keys), want)
	}
	// Unique first, then each key twice so payload runs are exercised too.
	checkAgainstRef(t, keys, nil, []int64{12345})
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
// flat table to match the map reference on every present and absent key,
// through Lookup and Probe.
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys []int64
		for len(data) >= 8 && len(keys) < 4096 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		checkAgainstRef(t, keys, nil, []int64{0, -1, math.MaxInt64})
	})
}
