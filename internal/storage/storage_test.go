package storage

import (
	"strings"
	"testing"
	"testing/quick"

	"bfcbo/internal/catalog"
)

func mkTable(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTable("t", []Column{
		{Name: "k", Kind: catalog.Int64, Ints: []int64{1, 2, 3, 2}},
		{Name: "v", Kind: catalog.Float64, Floats: []float64{0.5, 1.5, 2.5, 1.5}},
		StringColumn("s", []string{"a", "b", "c", "b"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTableBasics(t *testing.T) {
	tb := mkTable(t)
	if tb.NumRows() != 4 {
		t.Fatalf("NumRows = %d, want 4", tb.NumRows())
	}
	c, err := tb.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 || c.Ints[2] != 3 {
		t.Fatalf("column k wrong: %+v", c)
	}
	if _, err := tb.Column("ghost"); err == nil {
		t.Fatal("expected error for missing column")
	}
}

func TestNewTableRejectsMismatchedLengths(t *testing.T) {
	_, err := NewTable("bad", []Column{
		{Name: "a", Kind: catalog.Int64, Ints: []int64{1, 2}},
		{Name: "b", Kind: catalog.Int64, Ints: []int64{1}},
	})
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestNewTableRejectsDuplicateColumns(t *testing.T) {
	_, err := NewTable("bad", []Column{
		{Name: "a", Kind: catalog.Int64, Ints: []int64{1}},
		{Name: "a", Kind: catalog.Int64, Ints: []int64{2}},
	})
	if err == nil {
		t.Fatal("expected duplicate column error")
	}
}

func TestNewTableRejectsStringColumnWithoutDict(t *testing.T) {
	_, err := NewTable("bad", []Column{
		{Name: "k", Kind: catalog.Int64, Ints: []int64{1}},
		{Name: "s", Kind: catalog.String},
	})
	if err == nil || !strings.Contains(err.Error(), "no dictionary") {
		t.Fatalf("string column without a dictionary: err = %v", err)
	}
}

func TestEmptyTable(t *testing.T) {
	tb, err := NewTable("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 0 {
		t.Fatalf("empty table rows = %d", tb.NumRows())
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	if err := db.AddTable(mkTable(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(mkTable(t)); err == nil {
		t.Fatal("duplicate AddTable should fail")
	}
	if _, err := db.Table("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("unknown table should fail")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestAnalyze(t *testing.T) {
	meta := Analyze(mkTable(t))
	if meta.RowCount != 4 {
		t.Fatalf("RowCount = %v", meta.RowCount)
	}
	k, err := meta.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats.NDV != 3 || k.Stats.Min != 1 || k.Stats.Max != 3 {
		t.Fatalf("k stats = %+v", k.Stats)
	}
	v, _ := meta.Column("v")
	if v.Stats.NDV != 3 || v.Stats.Min != 0.5 || v.Stats.Max != 2.5 {
		t.Fatalf("v stats = %+v", v.Stats)
	}
	s, _ := meta.Column("s")
	if s.Stats.NDV != 3 {
		t.Fatalf("s stats = %+v", s.Stats)
	}
}

func TestAnalyzeEmptyColumns(t *testing.T) {
	tb, err := NewTable("e", []Column{
		{Name: "a", Kind: catalog.Int64},
		{Name: "b", Kind: catalog.Float64},
		StringColumn("c", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := Analyze(tb)
	for _, name := range []string{"a", "b", "c"} {
		c, err := meta.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats.NDV != 0 {
			t.Fatalf("empty column %s NDV = %v", name, c.Stats.NDV)
		}
	}
}

// Property: Analyze NDV never exceeds row count and min <= max.
func TestQuickAnalyzeInvariants(t *testing.T) {
	prop := func(vals []int64) bool {
		tb, err := NewTable("q", []Column{{Name: "x", Kind: catalog.Int64, Ints: vals}})
		if err != nil {
			return false
		}
		meta := Analyze(tb)
		c, err := meta.Column("x")
		if err != nil {
			return false
		}
		if c.Stats.NDV > float64(len(vals)) {
			return false
		}
		if len(vals) > 0 && c.Stats.Min > c.Stats.Max {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustColumnPanics(t *testing.T) {
	tb := mkTable(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumn should panic")
		}
	}()
	tb.MustColumn("ghost")
}
