package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/storage"
)

// The vectorized-kernel property suite: Compile/EvalBatch must agree with
// the row-at-a-time Eval on every predicate type — including Not/Or
// nesting, NaN floats (which pass NE/GT/GE under cmpHolds), dictionary
// string predicates with constants absent from the column, and empty
// selections — and the adaptive chain must keep agreeing across reorders.

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
		{Name: "s", Kind: catalog.String, Strings: strs},
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

// checkPredEquivalence asserts EvalBatch ≡ Eval and EvalRow ≡ Eval for one
// (table, predicate) pair over full, chunked, random-subset and empty
// selections, driving the chain far enough to cross reorder boundaries.
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
	// EvalRow per kernel: the conjunction of kernels is the predicate.
	for i := 0; i < rows; i++ {
		got := true
		for _, k := range ks {
			if !k.EvalRow(int32(i)) {
				got = false
				break
			}
		}
		if got != want[i] {
			t.Fatalf("EvalRow mismatch at row %d for %s: got %v want %v", i, p.String(), got, want[i])
		}
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
	// Chunked full scans, repeated past the reorder boundary so the chain
	// re-sorts by observed pass rates at least twice mid-test.
	chunk := 1 + rng.Intn(300)
	full := make([]int32, rows)
	for i := range full {
		full[i] = int32(i)
	}
	batches := 0
	for batches < 2*reorderEvery+3 {
		for lo := 0; lo < rows; lo += chunk {
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			verify(full[lo:hi], fmt.Sprintf("chunk[%d,%d)", lo, hi))
			batches++
		}
		if rows == 0 {
			break
		}
	}
	// Random subsets (ascending, possibly with gaps and duplicates absent).
	for trial := 0; trial < 5; trial++ {
		var sub []int32
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				sub = append(sub, int32(i))
			}
		}
		verify(sub, "subset")
	}
}

func TestKernelsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		rows := []int{0, 1, 7, 100, 1500}[rng.Intn(5)]
		tbl := kernelTable(t, rng, rows)
		p := randPred(rng, 3)
		checkPredEquivalence(t, tbl, p, rng)
	}
}

// Every concrete predicate type, deterministically, including the
// dictionary edge cases (absent constant under = and <>, Not of each
// dictionary kernel) and NaN-sensitive float comparisons.
func TestKernelsMatchEvalExhaustiveTypes(t *testing.T) {
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
		CmpCols{Col1: "a", Op: LT, Col2: "b"},
		BetweenInt{Col: "a", Lo: 10, Hi: 20},
		BetweenFloat{Col: "f", Lo: 0.05, Hi: 0.07},
		InInt{Col: "a", Vals: []int64{1, 4, 9, 16}},
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

// FuzzKernelEquivalence drives the same property from fuzzed seeds: the
// seed picks the table contents, predicate shape, and batch chunking.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(42), uint16(0))
	f.Add(int64(7), uint16(2000))
	f.Add(int64(-3), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, nrows uint16) {
		rng := rand.New(rand.NewSource(seed))
		rows := int(nrows) % 3000
		tbl := kernelTable(t, rng, rows)
		p := randPred(rng, 3)
		ks, err := Compile(p, tbl)
		if err != nil {
			t.Fatalf("compile %s: %v", p.String(), err)
		}
		chain := NewChain(ks)
		chunk := 1 + rng.Intn(600)
		sel := make([]int32, 0, chunk)
		for lo := 0; lo < rows; lo += chunk {
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			sel = sel[:0]
			for i := lo; i < hi; i++ {
				sel = append(sel, int32(i))
			}
			got := chain.EvalBatch(sel)
			j := 0
			for i := lo; i < hi; i++ {
				if p.Eval(tbl, i) {
					if j >= len(got) || got[j] != int32(i) {
						t.Fatalf("batch [%d,%d): row %d missing/misplaced for %s", lo, hi, i, p.String())
					}
					j++
				}
			}
			if j != len(got) {
				t.Fatalf("batch [%d,%d): %d extra rows kept for %s", lo, hi, len(got)-j, p.String())
			}
		}
	})
}
