package catalog

import (
	"slices"
	"strings"
	"testing"
)

func sampleSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	nation := NewTable("nation", 25, []Column{
		{Name: "n_nationkey", Type: Int64, Stats: ColumnStats{NDV: 25, Min: 0, Max: 24}},
		{Name: "n_name", Type: String, Stats: ColumnStats{NDV: 25}},
	})
	nation.PrimaryKey = "n_nationkey"
	supplier := NewTable("supplier", 1000, []Column{
		{Name: "s_suppkey", Type: Int64, Stats: ColumnStats{NDV: 1000, Min: 1, Max: 1000}},
		{Name: "s_nationkey", Type: Int64, Stats: ColumnStats{NDV: 25, Min: 0, Max: 24}},
	})
	supplier.PrimaryKey = "s_suppkey"
	supplier.ForeignKeys = []ForeignKey{{Col: "s_nationkey", RefTable: "nation", RefCol: "n_nationkey"}}
	for _, tb := range []*Table{nation, supplier} {
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSchemaRoundTrip(t *testing.T) {
	s := sampleSchema(t)
	tb, err := s.Table("supplier")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tb.Column("s_nationkey")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.NDV != 25 {
		t.Fatalf("NDV = %v, want 25", c.Stats.NDV)
	}
	if got := tb.ColumnIndex("s_suppkey"); got != 0 {
		t.Fatalf("ColumnIndex = %d, want 0", got)
	}
	if tb.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should index as -1")
	}
}

func TestForeignKeyLookup(t *testing.T) {
	s := sampleSchema(t)
	tb := s.MustTable("supplier")
	if len(tb.ForeignKeys) != 1 {
		t.Fatalf("ForeignKeys = %+v", tb.ForeignKeys)
	}
	fk := tb.ForeignKeys[0]
	if cols, ref := fk.Columns(), fk.RefColumns(); !slices.Equal(cols, []string{"s_nationkey"}) ||
		fk.RefTable != "nation" || !slices.Equal(ref, []string{"n_nationkey"}) {
		t.Fatalf("FK columns %v -> %s%v", cols, fk.RefTable, ref)
	}
	nation := s.MustTable("nation")
	if !slices.Equal(nation.Key(), []string{"n_nationkey"}) || !nation.IsKey([]string{"n_nationkey"}) {
		t.Fatalf("nation key = %v, want n_nationkey", nation.Key())
	}
	if nation.IsKey([]string{"n_name"}) || nation.IsKey(nil) {
		t.Fatal("n_name should not be the key")
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleSchema(t).Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBrokenFK(t *testing.T) {
	s := NewSchema()
	bad := NewTable("t", 1, []Column{{Name: "a", Type: Int64}})
	bad.ForeignKeys = []ForeignKey{{Col: "a", RefTable: "missing", RefCol: "x"}}
	if err := s.AddTable(bad); err != nil {
		t.Fatal(err)
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Validate should flag missing ref table, got %v", err)
	}
}

func TestValidateCatchesNonPKRef(t *testing.T) {
	s := NewSchema()
	a := NewTable("a", 1, []Column{{Name: "id", Type: Int64}, {Name: "other", Type: Int64}})
	a.PrimaryKey = "id"
	b := NewTable("b", 1, []Column{{Name: "aref", Type: Int64}})
	b.ForeignKeys = []ForeignKey{{Col: "aref", RefTable: "a", RefCol: "other"}}
	for _, tb := range []*Table{a, b} {
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject FK referencing a non-PK column")
	}
}

func TestValidateCatchesBadPK(t *testing.T) {
	s := NewSchema()
	tb := NewTable("t", 1, []Column{{Name: "a", Type: Int64}})
	tb.PrimaryKey = "ghost"
	if err := s.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject PK naming a missing column")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(NewTable("t", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(NewTable("t", 1, nil)); err == nil {
		t.Fatal("duplicate AddTable should fail")
	}
	if err := s.AddTable(nil); err == nil {
		t.Fatal("AddTable(nil) should fail")
	}
}

func TestTableNamesSorted(t *testing.T) {
	s := sampleSchema(t)
	names := s.TableNames()
	if len(names) != 2 || names[0] != "nation" || names[1] != "supplier" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestUnknownLookups(t *testing.T) {
	s := sampleSchema(t)
	if _, err := s.Table("ghost"); err == nil {
		t.Fatal("expected error for unknown table")
	}
	if _, err := s.MustTable("nation").Column("ghost"); err == nil {
		t.Fatal("expected error for unknown column")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable should panic for unknown table")
		}
	}()
	s.MustTable("ghost")
}

func TestColTypeString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("ColType String() labels wrong")
	}
	if ColType(99).String() != "ColType(99)" {
		t.Fatal("unknown ColType label wrong")
	}
}

// compositeSchema is partsupp and lineitem's composite key: pairs(x, y)
// keyed on both columns, and child(cx, cy) referencing it through fk.
func compositeSchema(t *testing.T, fk ForeignKey) *Schema {
	t.Helper()
	s := NewSchema()
	pairs := NewTable("pairs", 4, []Column{{Name: "x", Type: Int64}, {Name: "y", Type: Int64}, {Name: "z", Type: Int64}})
	pairs.PrimaryKeyCols = []string{"x", "y"}
	child := NewTable("child", 8, []Column{{Name: "cx", Type: Int64}, {Name: "cy", Type: Int64}})
	child.ForeignKeys = []ForeignKey{fk}
	for _, tb := range []*Table{pairs, child} {
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestValidateCompositeKeys(t *testing.T) {
	good := ForeignKey{Cols: []string{"cy", "cx"}, RefTable: "pairs", RefCols: []string{"y", "x"}}
	s := compositeSchema(t, good)
	if err := s.Validate(); err != nil {
		t.Fatalf("a composite FK onto the whole key, in either column order: %v", err)
	}
	pairs := s.MustTable("pairs")
	if !pairs.IsKey([]string{"y", "x"}) || pairs.IsKey([]string{"x"}) || pairs.IsKey([]string{"x", "x"}) {
		t.Fatal("IsKey misread the composite key")
	}
	if got := good.Columns(); len(got) != 2 || got[0] != "cy" {
		t.Fatalf("Columns() = %v", got)
	}
	for _, c := range []struct {
		name string
		fk   ForeignKey
		want string
	}{
		{"arity", ForeignKey{Cols: []string{"cx", "cy"}, RefTable: "pairs", RefCols: []string{"x"}}, "references 1 columns"},
		{"part of the key", ForeignKey{Cols: []string{"cx"}, RefTable: "pairs", RefCols: []string{"x"}}, "not its primary key"},
		{"a column outside the key", ForeignKey{Cols: []string{"cx", "cy"}, RefTable: "pairs", RefCols: []string{"x", "z"}}, "not its primary key"},
		{"a key column twice", ForeignKey{Cols: []string{"cx", "cy"}, RefTable: "pairs", RefCols: []string{"x", "x"}}, "not its primary key"},
		{"single and composite at once", ForeignKey{Col: "cx", Cols: []string{"cx", "cy"}, RefTable: "pairs", RefCols: []string{"x", "y"}}, "both single and composite"},
		{"missing referencing column", ForeignKey{Cols: []string{"cx", "ghost"}, RefTable: "pairs", RefCols: []string{"x", "y"}}, "FK column \"ghost\" missing"},
	} {
		err := compositeSchema(t, c.fk).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}

	both := compositeSchema(t, good)
	both.MustTable("pairs").PrimaryKey = "x"
	if err := both.Validate(); err == nil {
		t.Error("Validate accepted a table declaring both a single and a composite key")
	}
	ghost := compositeSchema(t, good)
	ghost.MustTable("pairs").PrimaryKeyCols = []string{"x", "ghost"}
	if err := ghost.Validate(); err == nil {
		t.Error("Validate accepted a composite key naming a missing column")
	}
}
