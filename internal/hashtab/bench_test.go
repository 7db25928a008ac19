package hashtab

import (
	"math/rand"
	"testing"
)

// Microbenchmarks comparing the flat kernels against the Go-map baseline
// they replaced. Run with -benchmem: the flat probe and aggregation
// loops must report 0 allocs/op — the CI microbench smoke fails loudly
// on any allocation regression.

const (
	benchRows   = 1 << 18
	benchKeyDom = benchRows / 2 // ~2 rows per key: realistic FK duplication
)

func benchKeys() ([]int64, []uint64) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, benchRows)
	for i := range keys {
		keys[i] = rng.Int63n(benchKeyDom)
	}
	return keys, HashVec(keys, nil)
}

func BenchmarkHashBuild(b *testing.B) {
	keys, hashes := benchKeys()
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(keys, hashes, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int32, len(keys))
			for j, k := range keys {
				m[k] = append(m[k], int32(j))
			}
		}
	})
}

func BenchmarkHashProbe(b *testing.B) {
	keys, hashes := benchKeys()
	// The unique-key build a foreign key probes: benchKeyDom distinct keys,
	// one row each, so the table has no payload.
	uniq := make([]int64, benchKeyDom)
	for i := range uniq {
		uniq[i] = int64(i)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(uniq), func(i, j int) { uniq[i], uniq[j] = uniq[j], uniq[i] })
	rng := rand.New(rand.NewSource(2))
	probes := make([]int64, benchRows)
	for i := range probes {
		// Half hits, half misses: exercises both the payload scan and
		// the empty-slot rejection path.
		if i%2 == 0 {
			probes[i] = keys[rng.Intn(len(keys))]
		} else {
			probes[i] = benchKeyDom + rng.Int63n(benchKeyDom)
		}
	}
	for _, c := range []struct {
		name   string
		build  []int64
		hashes []uint64
	}{{"flat", keys, hashes}, {"flat-unique", uniq, HashVec(uniq, nil)}} {
		tab, err := Build(c.build, c.hashes, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int
			for i := 0; i < b.N; i++ {
				for _, k := range probes {
					sink += len(tab.Lookup(k, Hash(k)))
				}
			}
			_ = sink
		})
		// The executor's form: each 1 024-key batch hashed by HashVec,
		// then one Probe call into reused candidate slices.
		b.Run(c.name+"-batch", func(b *testing.B) {
			const batch = 1024
			var hs []uint64
			var candO, candI []int32
			var sink int
			pass := func() {
				for lo := 0; lo < len(probes); lo += batch {
					hs = HashVec(probes[lo:lo+batch], hs)
					candO, candI = tab.Probe(probes[lo:lo+batch], hs, candO[:0], candI[:0])
					sink += len(candO)
				}
			}
			pass() // grows the scratch to its steady-state size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			_ = sink
		})
	}
	b.Run("map", func(b *testing.B) {
		m := buildRef(keys, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var sink int
		for i := 0; i < b.N; i++ {
			for _, k := range probes {
				sink += len(m[k])
			}
		}
		_ = sink
	})
}

func BenchmarkAggSink(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const groups = 256
	codes := make([]int64, benchRows)
	vals := make([]float64, benchRows)
	names := make([]string, groups)
	for g := range names {
		names[g] = "group-" + string(rune('A'+g%26)) + string(rune('0'+g%10))
	}
	for i := range codes {
		codes[i] = rng.Int63n(groups)
		vals[i] = rng.Float64()
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		tab := NewAgg(groups)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, c := range codes {
				tab.Add(c, 1, vals[j])
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		// The replaced sink hashed the group's *string* per row.
		b.ReportAllocs()
		m := make(map[string]float64, groups)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, c := range codes {
				m[names[c]] += vals[j]
			}
		}
	})
}
