package storage

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
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
		StringColumn("s", strs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestDictRoundTrip(t *testing.T) {
	for _, strs := range [][]string{
		{"pear", "apple", "pear", "", "banana", "apple", "pear"},
		{},
		{"only", "only", "only"},
	} {
		tbl := encTestTable(t, make([]int64, len(strs)), nil, strs)
		d, err := tbl.Dict("s")
		if err != nil {
			t.Fatal(err)
		}
		if !sort.StringsAreSorted(d.Values) {
			t.Fatalf("dictionary values not sorted: %v", d.Values)
		}
		distinct := make(map[string]bool)
		for _, s := range strs {
			distinct[s] = true
		}
		if len(d.Values) != len(distinct) || len(d.Codes) != len(strs) {
			t.Fatalf("%q: NDV = %d, codes = %d, want %d and %d", strs, len(d.Values), len(d.Codes), len(distinct), len(strs))
		}
		// The predicates' Evals decode through the dictionary, so this is
		// the one check of the encoding against the input strings.
		for i, s := range strs {
			if got := d.Values[d.Codes[i]]; got != s {
				t.Fatalf("row %d decodes to %q, want %q", i, got, s)
			}
		}
		for s := range distinct {
			code, ok := d.Code(s)
			if !ok || d.Values[code] != s {
				t.Fatalf("Code(%q) = (%d, %v)", s, code, ok)
			}
		}
		if _, ok := d.Code("kiwi"); ok {
			t.Fatal("Code of absent value reported present")
		}
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

// TestStoredColumnsHoldNoPointerPerRow walks Column and the Dict it points
// to: every slice must have a pointer-free element type, so the garbage
// collector never scans the stored rows. Dict.Values, one entry per
// distinct value, is the only exception.
func TestStoredColumnsHoldNoPointerPerRow(t *testing.T) {
	allowed := map[string]bool{"Dict.Values": true}
	var walk func(st reflect.Type)
	walk = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch f.Type.Kind() {
			case reflect.Slice:
				name := st.Name() + "." + f.Name
				if hasPointers(f.Type.Elem()) && !allowed[name] {
					t.Errorf("%s is a per-row slice of %s, which holds pointers", name, f.Type.Elem())
				}
			case reflect.Struct:
				walk(f.Type)
			case reflect.Pointer:
				if f.Type.Elem().Kind() == reflect.Struct {
					walk(f.Type.Elem())
				}
			}
		}
	}
	walk(reflect.TypeOf(Column{}))
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestDictMatchMemoBound: Match keeps each key's table until the tables
// and their keys would pass the Codes array's bytes; past that it builds
// a table on every call and keeps none. Every table, kept or not, is the
// test run over the values, and a kept one is the same slice on every
// call.
func TestDictMatchMemoBound(t *testing.T) {
	for _, c := range []struct{ rows, distinct int }{{1, 1}, {10, 10}, {64, 16}, {4096, 1000}} {
		vals := make([]string, c.rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%04d", i%c.distinct)
		}
		d := StringColumn("s", vals).Dict
		bound := 4 * len(d.Codes)
		kept := 0
		for k := 0; k < 40; k++ {
			key := fmt.Sprintf("suffix %d", k)
			suffix := fmt.Sprint(k)
			builds := 0
			test := func(s string) bool { builds++; return strings.HasSuffix(s, suffix) }
			first := d.Match(key, test)
			for i, v := range d.Values {
				if first[i] != strings.HasSuffix(v, suffix) {
					t.Fatalf("%d rows: key %q: entry %d (%q) is %v", c.rows, key, i, v, first[i])
				}
			}
			if d.memoBytes > bound {
				t.Fatalf("%d rows: memo holds %d bytes, bound %d", c.rows, d.memoBytes, bound)
			}
			again := d.Match(key, test)
			_, isKept := d.memo[key]
			switch {
			case isKept && (builds != len(d.Values) || &again[0] != &first[0]):
				t.Fatalf("%d rows: key %q is kept, yet the second call rebuilt its table", c.rows, key)
			case !isKept && builds != 2*len(d.Values):
				t.Fatalf("%d rows: key %q is not kept, yet the second call did not rebuild its table", c.rows, key)
			}
			if isKept {
				kept++
			}
		}
		if c.rows >= 10 && kept == 0 {
			t.Fatalf("%d rows: no table kept", c.rows)
		}
		if c.rows >= 64 && kept == 40 {
			t.Fatalf("%d rows: every table kept: the bound was never reached", c.rows)
		}
	}
}
