package main

import (
	"math/rand/v2"
	"time"

	"bfcbo"
	"bfcbo/internal/bloom"
	"bfcbo/internal/datagen"
	"bfcbo/internal/hashtab"
	"bfcbo/internal/query"
)

// Kernel timings taken from outside: the benchmark calls the bloom, hashtab
// and query packages' public functions directly on seeded keys. Each table
// kernel runs at one size whose table fits a typical L2 cache and one 16
// times larger that does not.
const (
	kernelL2Rows  = 1 << 14
	kernelMemRows = 16 * kernelL2Rows
)

// bestOf times fn a few times and returns the fastest run per unit of n: a
// kernel's cost is its uncontended time, and the minimum is the steadiest
// estimate of it on a shared host.
func bestOf(n int, fn func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

var kernelSink int

func kernelMetrics(seed uint64, eng *bfcbo.Engine) (layerValues, error) {
	out := layerValues{}
	rng := rand.New(rand.NewPCG(seed, 0x6b65726e))
	for _, sz := range []struct {
		tag  string
		rows int
	}{{"l2", kernelL2Rows}, {"mem", kernelMemRows}} {
		// Build keys repeat about four times each, like a foreign key.
		keys := make([]int64, sz.rows)
		for i := range keys {
			keys[i] = rng.Int64N(int64(sz.rows / 4))
		}
		hashes := hashtab.HashVec(keys, nil)
		var tab *hashtab.JoinTable
		var err error
		out["hashtab.build_ns_per_row."+sz.tag] = bestOf(sz.rows, func() {
			tab, err = hashtab.Build(keys, hashes, nil)
		})
		if err != nil {
			return nil, err
		}
		probes := make([]int64, sz.rows)
		for i := range probes {
			probes[i] = rng.Int64N(int64(sz.rows / 2)) // half of them miss
		}
		phashes := hashtab.HashVec(probes, nil)
		out["hashtab.probe_ns_per_key."+sz.tag] = bestOf(sz.rows, func() {
			n := 0
			for i, k := range probes {
				n += len(tab.Lookup(k, phashes[i]))
			}
			kernelSink += n
		})
		out["hashtab.agg_ns_per_row."+sz.tag] = bestOf(sz.rows, func() {
			agg := hashtab.NewAgg(sz.rows / 4)
			for i, k := range keys {
				agg.AddHash(k, hashes[i], 1, 1.5)
			}
			kernelSink += agg.Len()
		})
		if sz.tag == "mem" {
			f := bloom.NewForNDV(uint64(sz.rows / 4))
			out["bloom.add_ns_per_key"] = bestOf(sz.rows, func() {
				for _, h := range hashes {
					f.AddHash(h)
				}
			})
			sel := make([]int32, sz.rows)
			out["bloom.test_ns_per_key"] = bestOf(sz.rows, func() {
				for i := range sel {
					sel[i] = int32(i)
				}
				kernelSink += len(f.FilterSelHashes(phashes, sel))
			})
		}
	}

	// The scan filter kernel over the real lineitem columns: Q6's conjunct
	// of a date range, a float range and a float bound, morsel by morsel.
	li, err := eng.Dataset().DB.Table("lineitem")
	if err != nil {
		return nil, err
	}
	ks, err := query.Compile(query.And{Ps: []query.Predicate{
		query.BetweenInt{Col: "l_shipdate", Lo: datagen.Date(1994, 1, 1), Hi: datagen.Date(1994, 12, 31)},
		query.BetweenFloat{Col: "l_discount", Lo: 0.05, Hi: 0.07},
		query.CmpFloat{Col: "l_quantity", Op: query.LT, Val: 24},
	}}, li)
	if err != nil {
		return nil, err
	}
	const morsel = 4096
	sel := make([]int32, morsel)
	rows := li.NumRows()
	out["query.filter_ns_per_row"] = bestOf(rows, func() {
		chain := query.NewChain(ks)
		for lo := 0; lo < rows; lo += morsel {
			n := min(morsel, rows-lo)
			for i := 0; i < n; i++ {
				sel[i] = int32(lo + i)
			}
			kernelSink += len(chain.EvalBatch(sel[:n]))
		}
	})
	return out, nil
}
