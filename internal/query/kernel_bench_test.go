package query

import (
	"fmt"
	"math/rand"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/storage"
	"bfcbo/internal/vec"
)

// Steady-state filter-kernel benchmarks. CI gates on -benchmem reporting
// 0 allocs/op for every BenchmarkEvalBatch* and BenchmarkEvalRange*: the
// kernels through both entries (a filled selection vector and the dense
// range a scan morsel starts with), the chain, the NOT and OR kernels'
// pooled selection copies and the selection-vector compaction must all
// run allocation-free once compiled.

const benchRows = 8192

func benchChain(b *testing.B, tbl *storage.Table, p Predicate) (*Chain, []int32, []int32) {
	b.Helper()
	ks, err := Compile(p, tbl)
	if err != nil {
		b.Fatal(err)
	}
	rows := tbl.NumRows()
	return NewChain(ks), fillRange(0, make([]int32, rows)), make([]int32, rows)
}

func runEvalBatch(b *testing.B, p Predicate) {
	chain, template, sel := benchChain(b, kernelTable(b, rand.New(rand.NewSource(11)), benchRows), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(sel, template)
		chain.EvalBatch(sel[:benchRows])
	}
	b.SetBytes(benchRows * 8)
}

// runEvalRange is runEvalBatch through the dense entry: no template copy,
// the first kernel writes the ids it keeps.
func runEvalRange(b *testing.B, p Predicate) {
	chain, _, sel := benchChain(b, kernelTable(b, rand.New(rand.NewSource(11)), benchRows), p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.EvalRange(0, sel)
	}
	b.SetBytes(benchRows * 8)
}

var (
	benchCmpInt  = CmpInt{Col: "a", Op: LE, Val: 25}
	benchQ6Shape = And{Ps: []Predicate{
		// The Q6 filter shape: int range + float between + float compare.
		BetweenInt{Col: "a", Lo: 10, Hi: 30},
		BetweenFloat{Col: "f", Lo: 0.05, Hi: 0.07},
		CmpFloat{Col: "f", Op: LT, Val: 0.19},
	}}
	benchDictString = And{Ps: []Predicate{
		StrIn{Col: "s", Vals: []string{"alpha", "gamma"}},
		StrContains{Col: "s", Subs: []string{"a"}},
	}}
	benchNested = And{Ps: []Predicate{
		Not{P: StrPrefix{Col: "s", Prefix: "green"}},
		Or{Ps: []Predicate{
			CmpInt{Col: "a", Op: LT, Val: 10},
			CmpCols{Col1: "a", Op: GT, Col2: "b"},
		}},
		InInt{Col: "b", Vals: []int64{3, 9, 27, 41}},
	}}
)

func BenchmarkEvalBatchCmpInt(b *testing.B)     { runEvalBatch(b, benchCmpInt) }
func BenchmarkEvalBatchQ6Shape(b *testing.B)    { runEvalBatch(b, benchQ6Shape) }
func BenchmarkEvalBatchDictString(b *testing.B) { runEvalBatch(b, benchDictString) }
func BenchmarkEvalBatchNested(b *testing.B)     { runEvalBatch(b, benchNested) }
func BenchmarkEvalRangeCmpInt(b *testing.B)     { runEvalRange(b, benchCmpInt) }
func BenchmarkEvalRangeQ6Shape(b *testing.B)    { runEvalRange(b, benchQ6Shape) }
func BenchmarkEvalRangeDictString(b *testing.B) { runEvalRange(b, benchDictString) }
func BenchmarkEvalRangeNested(b *testing.B)     { runEvalRange(b, benchNested) }
func BenchmarkEvalBatchPassRate(b *testing.B)   { passRateSweep(b, false) }
func BenchmarkEvalRangePassRate(b *testing.B)   { passRateSweep(b, true) }

// The kernels with vector loops besides intRange's, one predicate each
// through the chain, with the vector loops on ("avx512", skipped on a CPU
// without them) and with the Go loops alone ("go"), in ns a row of the
// 8 192-row table: a < b and f < 0.1 pass about half the rows, f between
// 0.05 and 0.15 about as many, and s = 'gamma' one in nine.
var (
	benchCmpCols      = CmpCols{Col1: "a", Op: LT, Col2: "b"}
	benchCmpFloat     = CmpFloat{Col: "f", Op: LT, Val: 0.1}
	benchBetweenFloat = BetweenFloat{Col: "f", Lo: 0.05, Hi: 0.15}
	benchDictEq       = StrEq{Col: "s", Val: "gamma"}
)

func BenchmarkEvalRangeCmpCols(b *testing.B)      { bothBenchLoops(b, runEvalRange, benchCmpCols) }
func BenchmarkEvalRangeCmpFloat(b *testing.B)     { bothBenchLoops(b, runEvalRange, benchCmpFloat) }
func BenchmarkEvalRangeBetweenFloat(b *testing.B) { bothBenchLoops(b, runEvalRange, benchBetweenFloat) }
func BenchmarkEvalRangeDictEq(b *testing.B)       { bothBenchLoops(b, runEvalRange, benchDictEq) }
func BenchmarkEvalBatchCmpCols(b *testing.B)      { bothBenchLoops(b, runEvalBatch, benchCmpCols) }
func BenchmarkEvalBatchCmpFloat(b *testing.B)     { bothBenchLoops(b, runEvalBatch, benchCmpFloat) }
func BenchmarkEvalBatchBetweenFloat(b *testing.B) { bothBenchLoops(b, runEvalBatch, benchBetweenFloat) }

// bothBenchLoops runs one entry's benchmark of p with the vector loops on
// and off, and reports ns a row.
func bothBenchLoops(b *testing.B, run func(*testing.B, Predicate), p Predicate) {
	for _, on := range []bool{true, false} {
		name := "go"
		if on {
			name = "avx512"
		}
		b.Run(name, func(b *testing.B) {
			if on && !vec.AVX512() {
				b.Skip("the CPU lacks AVX-512 F/DQ/VL: only the Go loops run here")
			}
			defer setVectorLoops(on)()
			run(b, p)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
		})
	}
}

// BenchmarkEvalRangeFilter runs a scan's chain with a Bloom filter member
// through the dense entry: the filter alone (a scan with no predicate,
// whose filter reads the morsel), and after a compare.
func BenchmarkEvalRangeFilter(b *testing.B) {
	tbl := kernelTable(b, rand.New(rand.NewSource(11)), benchRows)
	preds, err := Compile(benchCmpInt, tbl)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pred bool
	}{{"first", false}, {"after", true}} {
		b.Run(c.name, func(b *testing.B) {
			f, _ := filterFixture(b, tbl)
			var ks []Kernel
			if c.pred {
				ks = append(ks, preds...)
			}
			chain, sel := NewChain(append(ks, f)), make([]int32, benchRows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chain.EvalRange(0, sel)
			}
			b.SetBytes(benchRows * 8)
		})
	}
}

// passRateSweep prices CmpInt and BetweenInt per row at 5, 50 and 95 %
// pass rates over one 1 024-row morsel (the executor's default) of a
// column drawn uniformly from [0, 100), through either entry. A kernel
// that branches on each row's outcome pays a mispredict on about half the
// rows at 50 %; a branch-free one costs the same at every rate.
func passRateSweep(b *testing.B, dense bool) {
	const morsel = 1024
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, benchRows)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	tbl, err := storage.NewTable("pr", []storage.Column{{Name: "a", Kind: catalog.Int64, Ints: vals}})
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int64{5, 50, 95} {
		for _, c := range []struct {
			name string
			p    Predicate
		}{
			{"CmpInt", CmpInt{Col: "a", Op: LT, Val: pct}},
			{"BetweenInt", BetweenInt{Col: "a", Lo: 50 - pct/2, Hi: 49 - pct/2 + pct}},
		} {
			b.Run(fmt.Sprintf("%s/pass%d", c.name, pct), func(b *testing.B) {
				chain, template, sel := benchChain(b, tbl, c.p)
				kept := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i * morsel % benchRows
					if dense {
						kept += len(chain.EvalRange(lo, sel[:morsel]))
					} else {
						copy(sel, template[lo:lo+morsel])
						kept += len(chain.EvalBatch(sel[:morsel]))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/morsel, "ns/row")
				b.ReportMetric(float64(kept)/float64(b.N)/morsel, "pass")
			})
		}
	}
}
