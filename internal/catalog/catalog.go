// Package catalog holds the schema metadata and optimizer statistics for the
// BF-CBO reproduction: table and column definitions, row counts, per-column
// NDV / min / max, and primary-key / foreign-key constraints, single-column
// or composite. It plays the
// role of GaussDB's catalog plus ANALYZE output: the optimizer consumes only
// this package, never raw data, so planning is decoupled from storage.
package catalog

import (
	"fmt"
	"slices"
	"sort"
)

// ColType enumerates the column value kinds supported by the engine.
type ColType int

const (
	// Int64 covers integer keys, dictionary-encoded strings and dates
	// (stored as epoch days). All join columns are Int64.
	Int64 ColType = iota
	// Float64 covers prices, discounts and other numerics.
	Float64
	// String covers free text; never used as a join key.
	String
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ColumnStats are the ANALYZE-style statistics the estimator consumes.
type ColumnStats struct {
	// NDV is the estimated number of distinct values.
	NDV float64
	// Min and Max bound Int64/Float64 columns (as float64 for uniformity).
	Min, Max float64
}

// Column describes one column of a table.
type Column struct {
	Name  string
	Type  ColType
	Stats ColumnStats
}

// ForeignKey records that columns of the owning table reference the primary
// key of table RefTable, column for column. Col and RefCol spell a
// single-column key; a composite key lists its columns in Cols and RefCols
// instead, RefCols in any order of the referenced key's columns and Cols[i]
// referencing RefCols[i]. The optimizer uses these to implement Heuristic 3
// (no Bloom filter on an FK joining a lossless PK), and the estimator to
// price a join on every column of a composite key (lineitem's (l_partkey,
// l_suppkey) → partsupp) as the foreign key it is.
type ForeignKey struct {
	Col      string
	RefTable string
	RefCol   string
	Cols     []string
	RefCols  []string
}

// Columns returns the referencing columns, in key order.
func (fk ForeignKey) Columns() []string {
	if fk.Col != "" {
		return []string{fk.Col}
	}
	return fk.Cols
}

// RefColumns returns the referenced columns, in key order.
func (fk ForeignKey) RefColumns() []string {
	if fk.RefCol != "" {
		return []string{fk.RefCol}
	}
	return fk.RefCols
}

// Table is the catalog entry for one base relation.
type Table struct {
	Name     string
	Columns  []Column
	RowCount float64
	// PrimaryKey names a single-column primary key; PrimaryKeyCols lists a
	// composite one's columns instead (partsupp's (ps_partkey, ps_suppkey)).
	// At most one of the two is set; Key reads either as a column list.
	PrimaryKey     string
	PrimaryKeyCols []string
	ForeignKeys    []ForeignKey

	colIndex map[string]int
}

// NewTable builds a table entry and indexes its columns.
func NewTable(name string, rowCount float64, cols []Column) *Table {
	t := &Table{Name: name, Columns: cols, RowCount: rowCount}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIndex[c.Name] = i
	}
}

// Column returns the named column, or an error naming the table for context.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q has no column %q", t.Name, name)
	}
	return &t.Columns[i], nil
}

// ColumnIndex returns the positional index of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table defines the named column.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// Key returns the primary key's columns, nil if the table has none.
func (t *Table) Key() []string {
	if t.PrimaryKey != "" {
		return []string{t.PrimaryKey}
	}
	return t.PrimaryKeyCols
}

// IsKey reports whether cols, in any order, are exactly the table's primary
// key columns.
func (t *Table) IsKey(cols []string) bool {
	key := t.Key()
	if len(key) == 0 || len(cols) != len(key) {
		return false
	}
	for i, c := range cols {
		if !slices.Contains(key, c) || slices.Contains(cols[:i], c) {
			return false
		}
	}
	return true
}

// Schema is a set of tables; the unit handed to the optimizer.
type Schema struct {
	tables map[string]*Table
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{tables: make(map[string]*Table)} }

// AddTable registers a table; replacing an existing name is an error so that
// generator/test wiring mistakes surface early.
func (s *Schema) AddTable(t *Table) error {
	if t == nil {
		return fmt.Errorf("catalog: AddTable(nil)")
	}
	if _, dup := s.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	s.tables[t.Name] = t
	return nil
}

// Table looks up a table by name.
func (s *Schema) Table(name string) (*Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// MustTable is Table for wiring code where absence is a programming error.
func (s *Schema) MustTable(name string) *Table {
	t, err := s.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TableNames returns the sorted table names (deterministic iteration).
func (s *Schema) TableNames() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks referential integrity of the metadata itself: every key
// column exists, every FK pairs as many columns as it references, and those
// are an existing table's primary key, all of it.
func (s *Schema) Validate() error {
	for _, name := range s.TableNames() {
		t := s.tables[name]
		if t.PrimaryKey != "" && len(t.PrimaryKeyCols) > 0 {
			return fmt.Errorf("catalog: table %q declares both PrimaryKey and PrimaryKeyCols", t.Name)
		}
		for _, c := range t.Key() {
			if !t.HasColumn(c) {
				return fmt.Errorf("catalog: table %q primary key %q is not a column", t.Name, c)
			}
		}
		if key := t.Key(); len(key) > 0 && !t.IsKey(key) {
			return fmt.Errorf("catalog: table %q primary key %v repeats a column", t.Name, key)
		}
		for _, fk := range t.ForeignKeys {
			if (fk.Col != "" && len(fk.Cols) > 0) || (fk.RefCol != "" && len(fk.RefCols) > 0) {
				return fmt.Errorf("catalog: table %q FK to %q sets both single and composite columns", t.Name, fk.RefTable)
			}
			cols, refCols := fk.Columns(), fk.RefColumns()
			if len(cols) == 0 || len(cols) != len(refCols) {
				return fmt.Errorf("catalog: table %q FK %v references %d columns of %q", t.Name, cols, len(refCols), fk.RefTable)
			}
			for _, c := range cols {
				if !t.HasColumn(c) {
					return fmt.Errorf("catalog: table %q FK column %q missing", t.Name, c)
				}
			}
			ref, err := s.Table(fk.RefTable)
			if err != nil {
				return fmt.Errorf("catalog: table %q FK: %w", t.Name, err)
			}
			for _, c := range refCols {
				if !ref.HasColumn(c) {
					return fmt.Errorf("catalog: table %q FK references missing column %s.%s",
						t.Name, fk.RefTable, c)
				}
			}
			if !ref.IsKey(refCols) {
				return fmt.Errorf("catalog: table %q FK references %s%v, not its primary key %v",
					t.Name, fk.RefTable, refCols, ref.Key())
			}
		}
	}
	return nil
}
