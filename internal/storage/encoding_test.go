package storage

import (
	"sort"
	"testing"

	"bfcbo/internal/catalog"
)

func encTestTable(t *testing.T, ints []int64, floats []float64, strs []string) *Table {
	t.Helper()
	n := len(ints)
	if floats == nil {
		floats = make([]float64, n)
	}
	if strs == nil {
		strs = make([]string, n)
	}
	tbl, err := NewTable("enc", []Column{
		{Name: "i", Kind: catalog.Int64, Ints: ints},
		{Name: "f", Kind: catalog.Float64, Floats: floats},
		{Name: "s", Kind: catalog.String, Strings: strs},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestDictRoundTrip(t *testing.T) {
	strs := []string{"pear", "apple", "pear", "", "banana", "apple", "pear"}
	tbl := encTestTable(t, make([]int64, len(strs)), nil, strs)
	d, err := tbl.Dict("s")
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(d.Values) {
		t.Fatalf("dictionary values not sorted: %v", d.Values)
	}
	if len(d.Values) != 4 {
		t.Fatalf("NDV = %d, want 4", len(d.Values))
	}
	for i, s := range strs {
		if got := d.Values[d.Codes[i]]; got != s {
			t.Fatalf("row %d decodes to %q, want %q", i, got, s)
		}
	}
	for _, s := range []string{"pear", "apple", "banana", ""} {
		code, ok := d.Code(s)
		if !ok || d.Values[code] != s {
			t.Fatalf("Code(%q) = (%d, %v)", s, code, ok)
		}
	}
	if _, ok := d.Code("kiwi"); ok {
		t.Fatal("Code of absent value reported present")
	}
	// Cached: second call returns the same encoding.
	d2, err := tbl.Dict("s")
	if err != nil || d2 != d {
		t.Fatalf("Dict not cached: %p vs %p (err=%v)", d, d2, err)
	}
}

func TestDictTypeErrors(t *testing.T) {
	tbl := encTestTable(t, []int64{1, 2}, nil, []string{"a", "b"})
	if _, err := tbl.Dict("i"); err == nil {
		t.Fatal("Dict over int column must error")
	}
	if _, err := tbl.Dict("missing"); err == nil {
		t.Fatal("Dict over unknown column must error")
	}
}
