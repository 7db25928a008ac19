package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bfcbo/internal/bloom"
	"bfcbo/internal/storage"
)

// filterFixture builds a filter over the keys of kernelTable's rows with
// a < 20, so about half the rows pass, and returns its chain member with
// the row-by-row oracle: the filter's own MayContainHash of the row's key.
func filterFixture(t testing.TB, tbl *storage.Table) (Kernel, func(int32) bool) {
	a, err := tbl.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	f := bloom.New(1 << 12)
	for r := range int32(tbl.NumRows()) {
		if a.Ints[r] < 20 {
			f.Add(a.Ints[r])
		}
	}
	return Filter(f, a.Ints, "bloom"), func(r int32) bool { return f.MayContainHash(bloom.KeyHash(a.Ints[r])) }
}

// TestFilterMatchesMayContain: a filter member keeps exactly the rows
// whose key the filter may hold, through both entries: EvalRange over
// dense ranges of 0–33 rows from several starts, and EvalBatch over a
// shuffled selection, whose order it keeps.
func TestFilterMatchesMayContain(t *testing.T) {
	const rows = 1500
	rng := rand.New(rand.NewSource(23))
	tbl := kernelTable(t, rng, rows)
	k, keep := filterFixture(t, tbl)
	passed := 0
	for r := range int32(rows) {
		if keep(r) {
			passed++
		}
	}
	if passed == 0 || passed == rows {
		t.Fatalf("%d of %d rows pass; the fixture must drop some and keep some", passed, rows)
	}
	for _, lo := range []int{0, 1, 5, 8, 13, rows - 33} {
		for n := 0; n <= 33; n++ {
			got := k.(rangeKernel).EvalRange(lo, scribble(make([]int32, n)))
			checkRange(t, fmt.Sprintf("EvalRange [%d,%d)", lo, lo+n), lo, lo+n, got, keep)
		}
	}
	sel := make([]int32, rows)
	for i, r := range rng.Perm(rows) {
		sel[i] = int32(r)
	}
	var want []int32
	for _, r := range sel {
		if keep(r) {
			want = append(want, r)
		}
	}
	got := k.EvalBatch(sel)
	if !slices.Equal(got, want) {
		t.Fatalf("EvalBatch: kept %d rows, the oracle %d, or in another order", len(got), len(want))
	}
}
