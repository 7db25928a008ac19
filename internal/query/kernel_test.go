package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/storage"
	"bfcbo/internal/vec"
)

// The vectorized-kernel property suite: Compile/EvalBatch and the dense
// entry EvalRange must agree with the row-at-a-time Eval on every
// predicate type — including Not/Or nesting, NaN floats (which pass
// NE/GT/GE under cmpHolds), ±Inf and −0, int64 values at both ends of the
// range (where the unsigned BETWEEN wraps), dictionary string predicates
// with constants absent from the column, and empty and shuffled
// selections — whatever order Compile ranks the conjuncts in.

var kernelVocab = []string{
	"alpha", "beta", "gamma", "green metallic", "forest green",
	"delta", "greenish", "", "metallic green",
}

// kernelTable builds a random table with int, float (NaN-bearing) and
// string columns.
func kernelTable(t testing.TB, rng *rand.Rand, rows int) *storage.Table {
	ints := make([]int64, rows)
	ints2 := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	for i := 0; i < rows; i++ {
		ints[i] = rng.Int63n(50)
		ints2[i] = rng.Int63n(50)
		switch rng.Intn(20) {
		case 0:
			floats[i] = math.NaN()
		case 1:
			floats[i] = 0.05 // exact boundary constant
		default:
			floats[i] = rng.Float64() * 0.2
		}
		strs[i] = kernelVocab[rng.Intn(len(kernelVocab))]
	}
	tbl, err := storage.NewTable("kt", []storage.Column{
		{Name: "a", Kind: catalog.Int64, Ints: ints},
		{Name: "b", Kind: catalog.Int64, Ints: ints2},
		{Name: "f", Kind: catalog.Float64, Floats: floats},
		storage.StringColumn("s", strs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randOp(rng *rand.Rand) CmpOp { return CmpOp(rng.Intn(6)) }

// randLeaf draws one leaf predicate covering every concrete type.
func randLeaf(rng *rand.Rand) Predicate {
	switch rng.Intn(11) {
	case 0:
		return CmpInt{Col: "a", Op: randOp(rng), Val: rng.Int63n(60) - 5}
	case 1:
		return CmpFloat{Col: "f", Op: randOp(rng), Val: []float64{0.05, 0.1, 0.0, 0.19}[rng.Intn(4)]}
	case 2:
		return CmpCols{Col1: "a", Op: randOp(rng), Col2: "b"}
	case 3:
		lo := rng.Int63n(50)
		return BetweenInt{Col: "b", Lo: lo, Hi: lo + rng.Int63n(20)}
	case 4:
		lo := rng.Float64() * 0.1
		return BetweenFloat{Col: "f", Lo: lo, Hi: lo + rng.Float64()*0.1}
	case 5:
		n := rng.Intn(4) // includes the empty IN list
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(60) - 5
		}
		return InInt{Col: "a", Vals: vals}
	case 6:
		// Sometimes a constant absent from the column's dictionary.
		if rng.Intn(3) == 0 {
			return StrEq{Col: "s", Val: "no-such-value"}
		}
		return StrEq{Col: "s", Val: kernelVocab[rng.Intn(len(kernelVocab))]}
	case 7:
		if rng.Intn(3) == 0 {
			return StrNE{Col: "s", Val: "no-such-value"}
		}
		return StrNE{Col: "s", Val: kernelVocab[rng.Intn(len(kernelVocab))]}
	case 8:
		n := 1 + rng.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = kernelVocab[rng.Intn(len(kernelVocab))]
		}
		return StrIn{Col: "s", Vals: vals}
	case 9:
		return StrPrefix{Col: "s", Prefix: []string{"g", "green", "m", "zz", ""}[rng.Intn(5)]}
	default:
		subs := [][]string{{"green"}, {"g", "n"}, {"metal", "green"}, {"xyz"}}
		return StrContains{Col: "s", Subs: subs[rng.Intn(len(subs))]}
	}
}

// randPred draws a predicate tree with Not/Or/And nesting up to depth.
func randPred(rng *rand.Rand, depth int) Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randLeaf(rng)
	}
	switch rng.Intn(3) {
	case 0:
		return Not{P: randPred(rng, depth-1)}
	case 1:
		n := 1 + rng.Intn(3)
		ps := make([]Predicate, n)
		for i := range ps {
			ps[i] = randPred(rng, depth-1)
		}
		return Or{Ps: ps}
	default:
		n := 1 + rng.Intn(3)
		ps := make([]Predicate, n)
		for i := range ps {
			ps[i] = randPred(rng, depth-1)
		}
		return And{Ps: ps}
	}
}

// checkPredEquivalence asserts EvalBatch ≡ Eval and EvalRange ≡ Eval for
// one (table, predicate) pair over full, chunked, random-subset, shuffled
// and empty selections, through the chain and kernel by kernel.
func checkPredEquivalence(t *testing.T, tbl *storage.Table, p Predicate, rng *rand.Rand) {
	t.Helper()
	ks, err := Compile(p, tbl)
	if err != nil {
		t.Fatalf("compile %s: %v", p.String(), err)
	}
	rows := tbl.NumRows()
	want := make([]bool, rows)
	for i := 0; i < rows; i++ {
		want[i] = p.Eval(tbl, i)
	}
	chain := NewChain(ks)
	sel := make([]int32, rows)
	verify := func(in []int32, label string) {
		t.Helper()
		cp := append(sel[:0], in...)
		got := chain.EvalBatch(cp)
		var exp []int32
		for _, r := range in {
			if want[r] {
				exp = append(exp, r)
			}
		}
		if len(got) != len(exp) {
			t.Fatalf("%s: EvalBatch kept %d rows, want %d, pred %s", label, len(got), len(exp), p.String())
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("%s: EvalBatch row %d = %d, want %d, pred %s", label, i, got[i], exp[i], p.String())
			}
		}
	}
	// Empty selection.
	verify(nil, "empty")
	// A chunked full scan.
	chunk := 1 + rng.Intn(300)
	full := fillRange(0, make([]int32, rows))
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		verify(full[lo:hi], fmt.Sprintf("chunk[%d,%d)", lo, hi))
	}
	// Random subsets, ascending with gaps, then the same rows shuffled: a
	// kernel keeps the selection's order, whatever it is.
	for trial := 0; trial < 5; trial++ {
		var sub []int32
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				sub = append(sub, int32(i))
			}
		}
		verify(sub, "subset")
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
		verify(sub, "shuffled subset")
	}

	// The dense entry, kernel by kernel (a column kernel through its own
	// EvalRange, any other through the chain's fill): EvalRange over
	// [lo, hi) keeps the rows of the range that the kernel's conjunct's
	// Eval accepts, in order, whatever sel held on entry — over the whole
	// table, a random range and empty ranges.
	conj := conjunctsOf(p)
	if len(ks) != len(conj) {
		t.Fatalf("%s: %d kernels for %d conjuncts", p.String(), len(ks), len(conj))
	}
	byLabel := map[string]Predicate{}
	for _, c := range conj {
		byLabel[c.String()] = c
	}
	ranges := [][2]int{{0, rows}, {rows, rows}, {0, 0}}
	if rows > 0 {
		lo := rng.Intn(rows)
		ranges = append(ranges, [2]int{lo, lo + 1 + rng.Intn(rows-lo)}, [2]int{lo, lo})
	}
	for _, k := range ks {
		c, ok := byLabel[k.Label()]
		if !ok {
			t.Fatalf("%s: kernel %q matches no conjunct", p.String(), k.Label())
		}
		eval := func(r int32) bool { return c.Eval(tbl, int(r)) }
		one := NewChain([]Kernel{k})
		for _, r := range ranges {
			got := one.EvalRange(r[0], scribble(sel[:r[1]-r[0]]))
			checkRange(t, fmt.Sprintf("%s EvalRange[%d,%d)", k.Label(), r[0], r[1]), r[0], r[1], got, eval)
		}
	}
	// The dense entry through the chain, in morsels whose last one is
	// partial. A twin chain fed the same morsels as filled row ids
	// through EvalBatch must keep the same rows and count the same
	// per-kernel flow, so the scan's EXPLAIN ANALYZE counters do not
	// depend on the entry.
	morsel := 1 + rng.Intn(300)
	for rows > 1 && rows%morsel == 0 {
		morsel++
	}
	dense, twin := NewChain(ks), NewChain(ks)
	evalRow := func(r int32) bool { return want[r] }
	for lo := 0; lo < rows; lo += morsel {
		hi := min(lo+morsel, rows)
		label := fmt.Sprintf("chain EvalRange[%d,%d)", lo, hi)
		checkRange(t, label, lo, hi, dense.EvalRange(lo, scribble(sel[:hi-lo])), evalRow)
		ids := make([]int32, hi-lo)
		checkRange(t, label+" twin", lo, hi, twin.EvalBatch(fillRange(lo, ids)), evalRow)
	}
	if got, exp := dense.Counts(), twin.Counts(); !slices.Equal(got, exp) {
		t.Fatalf("EvalRange counts %v, EvalBatch counts %v, pred %s", got, exp, p.String())
	}
}

// conjunctsOf flattens p's top-level Ands, as Compile does before it
// ranks the conjuncts.
func conjunctsOf(p Predicate) []Predicate {
	and, ok := p.(And)
	if !ok {
		return []Predicate{p}
	}
	var out []Predicate
	for _, q := range and.Ps {
		out = append(out, conjunctsOf(q)...)
	}
	return out
}

// The column kernels start a morsel from their column. One that lost
// EvalRange would still be correct through the chain's fill, only slower,
// so this is where the loss shows.
var _ = []rangeKernel{
	(*intRangeKernel)(nil), (*floatRangeKernel)(nil), (*cmpColsKernel)(nil), (*dictEqKernel)(nil), (*dictMatchKernel)(nil),
}

// scribble fills sel with ids no range holds, so a kernel that reads sel
// on the dense entry, or keeps a row it never wrote, fails the check.
func scribble(sel []int32) []int32 {
	for i := range sel {
		sel[i] = -1
	}
	return sel
}

// checkRange asserts got is exactly the rows of [lo, hi) that keep
// accepts, in ascending order.
func checkRange(t *testing.T, label string, lo, hi int, got []int32, keep func(int32) bool) {
	t.Helper()
	n := 0
	for r := int32(lo); r < int32(hi); r++ {
		if !keep(r) {
			continue
		}
		if n >= len(got) || got[n] != r {
			t.Fatalf("%s: row %d missing or misplaced (kept %v)", label, r, got)
		}
		n++
	}
	if n != len(got) {
		t.Fatalf("%s: kept %d rows, want %d (kept %v)", label, len(got), n, got)
	}
}

func TestKernelsMatchEval(t *testing.T) {
	bothLoops(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 60; trial++ {
			rows := []int{0, 1, 7, 100, 1500}[rng.Intn(5)]
			tbl := kernelTable(t, rng, rows)
			p := randPred(rng, 3)
			checkPredEquivalence(t, tbl, p, rng)
		}
	})
}

// Every concrete predicate type, deterministically, including the
// dictionary edge cases (absent constant under = and <>, Not of each
// dictionary kernel) and NaN-sensitive float comparisons.
func TestKernelsMatchEvalExhaustiveTypes(t *testing.T) {
	bothLoops(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		tbl := kernelTable(t, rng, 800)
		preds := []Predicate{
			CmpInt{Col: "a", Op: EQ, Val: 3},
			CmpInt{Col: "a", Op: NE, Val: 3},
			CmpInt{Col: "a", Op: LT, Val: 25},
			CmpInt{Col: "a", Op: LE, Val: 25},
			CmpInt{Col: "a", Op: GT, Val: 25},
			CmpInt{Col: "a", Op: GE, Val: 25},
			CmpFloat{Col: "f", Op: EQ, Val: 0.05},
			CmpFloat{Col: "f", Op: NE, Val: 0.05},
			CmpFloat{Col: "f", Op: LT, Val: 0.05},
			CmpFloat{Col: "f", Op: LE, Val: 0.05},
			CmpFloat{Col: "f", Op: GT, Val: 0.05},
			CmpFloat{Col: "f", Op: GE, Val: 0.05},
			CmpCols{Col1: "a", Op: EQ, Col2: "b"},
			CmpCols{Col1: "a", Op: NE, Col2: "b"},
			CmpCols{Col1: "a", Op: LT, Col2: "b"},
			CmpCols{Col1: "a", Op: LE, Col2: "b"},
			CmpCols{Col1: "a", Op: GT, Col2: "b"},
			CmpCols{Col1: "a", Op: GE, Col2: "b"},
			BetweenInt{Col: "a", Lo: 10, Hi: 20},
			BetweenFloat{Col: "f", Lo: 0.05, Hi: 0.07},
			BetweenFloat{Col: "f", Lo: 0.07, Hi: 0.05},
			BetweenFloat{Col: "f", Lo: math.NaN(), Hi: 0.1},
			CmpFloat{Col: "f", Op: LE, Val: math.NaN()},
			CmpFloat{Col: "f", Op: GT, Val: math.NaN()},
			InInt{Col: "a", Vals: []int64{1, 4, 9, 16}},
			InInt{Col: "a", Vals: []int64{4, 4, 9, 4}},
			InInt{Col: "a", Vals: []int64{}},
			InInt{Col: "a", Vals: nil},
			StrEq{Col: "s", Val: "gamma"},
			StrEq{Col: "s", Val: "absent"},
			StrNE{Col: "s", Val: "gamma"},
			StrNE{Col: "s", Val: "absent"},
			StrIn{Col: "s", Vals: []string{"alpha", "delta"}},
			StrPrefix{Col: "s", Prefix: "green"},
			StrContains{Col: "s", Subs: []string{"green"}},
			StrContains{Col: "s", Subs: []string{"m", "green"}},
			Not{P: StrEq{Col: "s", Val: "absent"}},
			Not{P: StrNE{Col: "s", Val: "absent"}},
			Not{P: StrEq{Col: "s", Val: "gamma"}},
			Not{P: StrNE{Col: "s", Val: ""}},
			Not{P: Not{P: StrIn{Col: "s", Vals: []string{"beta", "absent"}}}},
			Not{P: StrPrefix{Col: "s", Prefix: "green"}},
			Not{P: CmpFloat{Col: "f", Op: GT, Val: 0.05}},
			Not{P: Not{P: CmpInt{Col: "a", Op: GE, Val: 12}}},
			Or{Ps: []Predicate{CmpInt{Col: "a", Op: LT, Val: 5}, StrEq{Col: "s", Val: "beta"}}},
			And{Ps: []Predicate{
				BetweenInt{Col: "a", Lo: 5, Hi: 45},
				Or{Ps: []Predicate{CmpFloat{Col: "f", Op: GE, Val: 0.1}, StrPrefix{Col: "s", Prefix: "g"}}},
				Not{P: InInt{Col: "b", Vals: []int64{7, 13}}},
			}},
		}
		for _, p := range preds {
			checkPredEquivalence(t, tbl, p, rng)
		}
	})
}

// extremesTable crosses every pair of int64 extremes (both ends of the
// range and their neighbours, where v-lo wraps) in columns a and b, and
// cycles floats through NaN, ±Inf, ±MaxFloat64, −0, +0 and the smallest
// denormal in column f.
func extremesTable(t testing.TB) *storage.Table {
	var ints, ints2 []int64
	var floats []float64
	for _, x := range extremeInts {
		for _, y := range extremeInts {
			ints = append(ints, x)
			ints2 = append(ints2, y)
			floats = append(floats, extremeFloats[len(floats)%len(extremeFloats)])
		}
	}
	tbl, err := storage.NewTable("xt", []storage.Column{
		{Name: "a", Kind: catalog.Int64, Ints: ints},
		{Name: "b", Kind: catalog.Int64, Ints: ints2},
		{Name: "f", Kind: catalog.Float64, Floats: floats},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

var (
	extremeInts = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	// extremeFloats cycles through the table's 49 rows, so each value
	// appears four or five times.
	extremeFloats = []float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, 1, math.MaxFloat64, math.Inf(1),
	}
)

// The branch-free forms at the values that break naive ones: BETWEEN as
// one unsigned compare with bounds at the int64 extremes and with Lo > Hi,
// floats with NaN, ±Inf and −0 under BETWEEN and every compare (as
// constants too, with ±MaxFloat64 and the smallest denormals, where a
// compare's range bound steps across zero or stops short of infinity), IN
// with duplicate constants and an empty list.
func TestKernelsMatchEvalExtremes(t *testing.T) {
	bothLoops(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		tbl := extremesTable(t)
		var preds []Predicate
		for _, lo := range extremeInts {
			for _, hi := range extremeInts {
				preds = append(preds, BetweenInt{Col: "a", Lo: lo, Hi: hi})
			}
		}
		floatConsts := []float64{
			math.NaN(), math.Inf(-1), -math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
			0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1),
		}
		for _, lo := range floatConsts {
			for _, hi := range floatConsts {
				preds = append(preds, BetweenFloat{Col: "f", Lo: lo, Hi: hi})
			}
		}
		for op := EQ; op <= GE; op++ {
			for _, v := range extremeInts {
				preds = append(preds, CmpInt{Col: "a", Op: op, Val: v})
			}
			for _, v := range floatConsts {
				preds = append(preds, CmpFloat{Col: "f", Op: op, Val: v})
			}
			preds = append(preds, CmpCols{Col1: "a", Op: op, Col2: "b"})
		}
		preds = append(preds,
			InInt{Col: "a", Vals: []int64{0, 0, math.MaxInt64, math.MaxInt64, math.MinInt64}},
			InInt{Col: "a", Vals: []int64{5, 5}},
			InInt{Col: "a", Vals: []int64{}},
			Not{P: BetweenInt{Col: "a", Lo: 1, Hi: -1}},
			Not{P: BetweenFloat{Col: "f", Lo: math.Inf(-1), Hi: math.Inf(1)}},
		)
		for _, p := range preds {
			checkPredEquivalence(t, tbl, p, rng)
		}
	})
}

// Compiling a predicate over a missing column must fail, not panic.
func TestCompileUnknownColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := kernelTable(t, rng, 10)
	if _, err := Compile(CmpInt{Col: "nope", Op: EQ, Val: 1}, tbl); err == nil {
		t.Fatal("expected error for unknown column")
	}
	if _, err := Compile(StrEq{Col: "a", Val: "x"}, tbl); err == nil {
		t.Fatal("expected error for string predicate over int column")
	}
}

// TestSharedNotOrKernels: the kernels of one compiled predicate are
// shared by every worker of a scan, and the NOT and OR kernels take their
// selection copies from a shared pool. Six goroutines run one compiled
// set at once, each over its own shuffled selections, and each must keep
// exactly the rows Eval accepts; under -race this covers the pool.
func TestSharedNotOrKernels(t *testing.T) {
	const rows, workers = 3000, 6
	tbl := kernelTable(t, rand.New(rand.NewSource(17)), rows)
	p := And{Ps: []Predicate{
		Not{P: BetweenInt{Col: "a", Lo: 10, Hi: 20}},
		Or{Ps: []Predicate{
			CmpFloat{Col: "f", Op: LT, Val: 0.05},
			Not{P: CmpCols{Col1: "a", Op: LE, Col2: "b"}},
			StrPrefix{Col: "s", Prefix: "g"},
		}},
		Not{P: Or{Ps: []Predicate{InInt{Col: "b", Vals: []int64{3, 9}}, CmpInt{Col: "a", Op: GT, Val: 45}}}},
	}}
	ks, err := Compile(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			chain := NewChain(ks)
			for trial := 0; trial < 200; trial++ {
				sel := fillRange(0, make([]int32, rows))
				rng.Shuffle(rows, func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
				sel = sel[:rng.Intn(rows+1)]
				var exp []int32
				for _, r := range sel {
					if p.Eval(tbl, int(r)) {
						exp = append(exp, r)
					}
				}
				if got := chain.EvalBatch(sel); !slices.Equal(got, exp) {
					t.Errorf("worker %d trial %d: kept %d rows, Eval keeps %d", seed, trial, len(got), len(exp))
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCompileRanksQ6Shape: Compile orders the conjuncts once, cheapest per
// eliminated row first, on pass rates sampled from the table. Over
// lineitem-like columns, Q6's filter written in the reverse order runs
// shipdate (one year of seven), then discount (3 of 11 values), then
// quantity (23 of 50), and every call returns that order.
func TestCompileRanksQ6Shape(t *testing.T) {
	const rows = 20000
	rng := rand.New(rand.NewSource(6))
	ship := make([]int64, rows)
	disc := make([]float64, rows)
	qty := make([]int64, rows)
	for i := range ship {
		ship[i] = 8035 + rng.Int63n(2526)
		disc[i] = float64(rng.Intn(11)) / 100
		qty[i] = 1 + rng.Int63n(50)
	}
	tbl, err := storage.NewTable("li", []storage.Column{
		{Name: "l_shipdate", Kind: catalog.Int64, Ints: ship},
		{Name: "l_discount", Kind: catalog.Float64, Floats: disc},
		{Name: "l_quantity", Kind: catalog.Int64, Ints: qty},
	})
	if err != nil {
		t.Fatal(err)
	}
	q6 := And{Ps: []Predicate{
		CmpInt{Col: "l_quantity", Op: LT, Val: 24},
		BetweenFloat{Col: "l_discount", Lo: 0.05, Hi: 0.07},
		BetweenInt{Col: "l_shipdate", Lo: 8766, Hi: 9130},
	}}
	want := []string{q6.Ps[2].String(), q6.Ps[1].String(), q6.Ps[0].String()}
	for call := 0; call < 3; call++ {
		ks, err := Compile(q6, tbl)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, k := range ks {
			got = append(got, k.Label())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d: order %q, want %q", call, got, want)
		}
	}
}

// FuzzKernelEquivalence drives the same property from fuzzed seeds: the
// seed picks the table contents, predicate shape, and batch chunking. Each
// chunk goes through both entries, a filled selection (EvalBatch) and its
// dense rows (EvalRange), with the vector loops on and off.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(0))
	f.Add(int64(7), uint16(2000))
	f.Add(int64(-3), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nrows uint16) {
		bothLoops(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rows := int(nrows) % 3000
			tbl := kernelTable(t, rng, rows)
			p := randPred(rng, 3)
			ks, err := Compile(p, tbl)
			if err != nil {
				t.Fatalf("compile %s: %v", p.String(), err)
			}
			chain, dense := NewChain(ks), NewChain(ks)
			chunk := 1 + rng.Intn(600)
			sel := make([]int32, 0, chunk)
			for lo := 0; lo < rows; lo += chunk {
				hi := min(lo+chunk, rows)
				sel = sel[:0]
				for i := lo; i < hi; i++ {
					sel = append(sel, int32(i))
				}
				keep := func(r int32) bool { return p.Eval(tbl, int(r)) }
				label := fmt.Sprintf("%s [%d,%d)", p.String(), lo, hi)
				checkRange(t, label+" EvalBatch", lo, hi, chain.EvalBatch(sel), keep)
				checkRange(t, label+" EvalRange", lo, hi, dense.EvalRange(lo, scribble(sel[:hi-lo])), keep)
			}
		})
	})
}

// TestIntRangeLanes compares the vector loop's output with the Go loop's,
// id by id, at the lanes' edges: every length up to four blocks and a
// bit, from rows that do and do not start a block, over a column that
// alternates between the int64 extremes, with predicates that keep every
// row, none and every other one, bounds at MinInt64 and MaxInt64, Lo > Hi
// and NE.
func TestIntRangeLanes(t *testing.T) {
	if !vec.AVX512() {
		t.Skip("the CPU lacks AVX-512 F/DQ/VL: there is no vector output to compare")
	}
	const rows = 64
	alt := make([]int64, rows)
	for i := range alt {
		alt[i] = []int64{math.MinInt64, math.MaxInt64}[i%2]
	}
	tbl, err := storage.NewTable("lanes", []storage.Column{{Name: "a", Kind: catalog.Int64, Ints: alt}})
	if err != nil {
		t.Fatal(err)
	}
	var preds []Predicate
	for op := EQ; op <= GE; op++ {
		for _, v := range []int64{math.MinInt64, math.MaxInt64, 0} {
			preds = append(preds, CmpInt{Col: "a", Op: op, Val: v})
		}
	}
	preds = append(preds,
		BetweenInt{Col: "a", Lo: math.MinInt64, Hi: math.MaxInt64},
		BetweenInt{Col: "a", Lo: math.MaxInt64, Hi: math.MinInt64},
		BetweenInt{Col: "a", Lo: math.MinInt64, Hi: math.MinInt64},
		BetweenInt{Col: "a", Lo: math.MaxInt64, Hi: math.MaxInt64},
		BetweenInt{Col: "a", Lo: 1, Hi: -1},
	)
	for _, p := range preds {
		ks, err := Compile(p, tbl)
		if err != nil {
			t.Fatal(err)
		}
		k := ks[0].(rangeKernel)
		for _, lo := range []int{0, 1, 5, 8, 13, rows - 33} {
			for n := 0; n <= 33; n++ {
				restore := setVectorLoops(true)
				got := slices.Clone(k.EvalRange(lo, scribble(make([]int32, n))))
				restore()
				restore = setVectorLoops(false)
				want := k.EvalRange(lo, scribble(make([]int32, n)))
				restore()
				for i := range max(len(got), len(want)) {
					if i >= len(got) || i >= len(want) || got[i] != want[i] {
						t.Fatalf("%s rows [%d,%d): vector kept %v, Go kept %v; first difference at %d",
							p, lo, lo+n, got, want, i)
					}
				}
			}
		}
	}
}

// TestColumnKernelLanes compares the vector loops of the float, two-column
// and dictionary kernels with their Go loops, id by id, through both
// entries: the dense rows of every length up to four blocks of sixteen and
// a bit, from rows that do and do not start a block, and the same rows as
// a shuffled selection. The columns cycle through NaN, ±Inf and ±0, the
// int64 extremes and a dictionary's codes, and the predicates cover
// EQ/LT/LE with and without negation, lo > hi, and present and absent
// codes.
func TestColumnKernelLanes(t *testing.T) {
	if !vec.AVX512() {
		t.Skip("the CPU lacks AVX-512 F/DQ/VL: there is no vector output to compare")
	}
	const rows = 96
	rng := rand.New(rand.NewSource(9))
	a, b, f := make([]int64, rows), make([]int64, rows), make([]float64, rows)
	strs := make([]string, rows)
	for i := range a {
		a[i] = extremeInts[rng.Intn(len(extremeInts))]
		b[i] = extremeInts[rng.Intn(len(extremeInts))]
		f[i] = extremeFloats[rng.Intn(len(extremeFloats))]
		strs[i] = kernelVocab[rng.Intn(3)]
	}
	tbl, err := storage.NewTable("lanes", []storage.Column{
		{Name: "a", Kind: catalog.Int64, Ints: a},
		{Name: "b", Kind: catalog.Int64, Ints: b},
		{Name: "f", Kind: catalog.Float64, Floats: f},
		storage.StringColumn("s", strs),
	})
	if err != nil {
		t.Fatal(err)
	}
	var preds []Predicate
	for op := EQ; op <= GE; op++ {
		preds = append(preds, CmpCols{Col1: "a", Op: op, Col2: "b"}, CmpCols{Col1: "a", Op: op, Col2: "a"})
		for _, v := range []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1, math.Inf(1)} {
			preds = append(preds, CmpFloat{Col: "f", Op: op, Val: v})
		}
	}
	for _, r := range [][2]float64{{-1, 1}, {math.Inf(-1), math.Inf(1)}, {1, -1}, {0, math.Copysign(0, -1)}, {math.NaN(), 1}} {
		preds = append(preds, BetweenFloat{Col: "f", Lo: r[0], Hi: r[1]})
	}
	for _, v := range []string{kernelVocab[0], kernelVocab[1], "absent"} {
		preds = append(preds, StrEq{Col: "s", Val: v}, StrNE{Col: "s", Val: v})
	}
	// run evaluates the kernel one way with the vector loops on and off.
	both := func(run func() []int32) (vector, goLoop []int32) {
		restore := setVectorLoops(true)
		vector = slices.Clone(run())
		restore()
		restore = setVectorLoops(false)
		goLoop = run()
		restore()
		return vector, goLoop
	}
	for _, p := range preds {
		ks, err := Compile(p, tbl)
		if err != nil {
			t.Fatal(err)
		}
		k := ks[0]
		for _, lo := range []int{0, 1, 5, 8, 13, rows - 49} {
			for n := 0; n <= 49; n++ {
				got, want := both(func() []int32 { return k.(rangeKernel).EvalRange(lo, scribble(make([]int32, n))) })
				sameLanes(t, fmt.Sprintf("%s EvalRange [%d,%d)", p, lo, lo+n), got, want)
				ids := rng.Perm(rows)[:n]
				got, want = both(func() []int32 {
					sel := make([]int32, n)
					for i, r := range ids {
						sel[i] = int32(r)
					}
					return k.EvalBatch(sel)
				})
				sameLanes(t, fmt.Sprintf("%s EvalBatch %v", p, ids), got, want)
			}
		}
	}
}

// sameLanes asserts that the vector loops kept the Go loops' ids, in order.
func sameLanes(t *testing.T, label string, got, want []int32) {
	t.Helper()
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("%s: vector kept %v, Go kept %v; first difference at %d", label, got, want, i)
		}
	}
}

// TestDictMatchMemoConcurrent: eight goroutines compile the same and
// different LIKE, NOT LIKE and IN predicates over one dictionary at once,
// in their own orders, more of them than the dictionary's memo holds, so
// some tables are kept and some built on every compile. Two of the IN
// lists print the same label, and both tables are kept. Every compiled
// table must be the one Eval decides, value by value (each value occurs
// in a row), and a predicate's later compiles must keep returning it.
// Under -race this covers the memo's lock.
func TestDictMatchMemoConcurrent(t *testing.T) {
	const rows, workers = 256, 8
	rng := rand.New(rand.NewSource(23))
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s %d", kernelVocab[rng.Intn(len(kernelVocab))], i%64)
	}
	tbl, err := storage.NewTable("memo", []storage.Column{storage.StringColumn("s", vals)})
	if err != nil {
		t.Fatal(err)
	}
	// Two IN lists whose labels are the same string: s in ('X','Y').
	// They come first, into the empty memo, so both tables are kept.
	preds := []Predicate{
		StrIn{Col: "s", Vals: []string{vals[0], vals[7]}},
		StrIn{Col: "s", Vals: []string{vals[0] + "','" + vals[7]}},
	}
	if preds[0].String() != preds[1].String() {
		t.Fatalf("labels %q and %q differ: the test lost its twin", preds[0], preds[1])
	}
	for _, sub := range []string{"green", "a", "metal", "1", "2 ", "xyz"} {
		like := StrContains{Col: "s", Subs: []string{sub}}
		preds = append(preds, like, Not{P: like})
	}
	for _, prefix := range []string{"g", "forest", "beta 3"} {
		like := StrPrefix{Col: "s", Prefix: prefix}
		preds = append(preds, like, Not{P: like})
	}
	preds = append(preds,
		StrIn{Col: "s", Vals: []string{vals[1], "absent"}},
		Not{P: StrIn{Col: "s", Vals: []string{vals[3]}}},
	)
	d, err := tbl.Dict("s")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]bool, len(preds))
	for i, p := range preds {
		want[i] = make([]bool, len(d.Values))
		for r := range rows {
			want[i][d.Codes[r]] = p.Eval(tbl, r)
		}
	}
	for _, p := range preds[:2] {
		if _, err := Compile(p, tbl); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 20; round++ {
				for _, i := range rng.Perm(len(preds)) {
					ks, err := Compile(preds[i], tbl)
					if err != nil {
						t.Error(err)
						return
					}
					k, ok := ks[0].(*dictMatchKernel)
					if !ok {
						t.Errorf("%s compiled to %T", preds[i], ks[0])
						return
					}
					if !slices.Equal(k.match, want[i]) {
						t.Errorf("worker %d: %s: table %v, Eval's %v", seed, preds[i], k.match, want[i])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// A kept table is the same slice on every compile.
	kept := 0
	for _, p := range preds {
		k1, _ := Compile(p, tbl)
		k2, _ := Compile(p, tbl)
		if &k1[0].(*dictMatchKernel).match[0] == &k2[0].(*dictMatchKernel).match[0] {
			kept++
		}
	}
	if kept == 0 || kept == len(preds) {
		t.Fatalf("the memo kept %d of %d tables: the test lost half its subject", kept, len(preds))
	}
}
