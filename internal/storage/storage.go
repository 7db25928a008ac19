// Package storage provides the in-memory columnar table store the executor
// reads. It replaces the paper's GaussDB column store: each table is a set
// of equally-sized typed column vectors; operators address rows through
// selection vectors so filters and Bloom filters never copy data.
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bfcbo/internal/catalog"
)

// Column is one typed column vector. Exactly one of the data slices is
// non-nil, matching Kind.
type Column struct {
	Name string
	Kind catalog.ColType

	Ints    []int64
	Floats  []float64
	Strings []string
}

// Len reports the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case catalog.Int64:
		return len(c.Ints)
	case catalog.Float64:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// Table is a named collection of columns of equal length.
type Table struct {
	Name    string
	Columns []Column

	colIndex map[string]int

	// Lazily built string dictionaries (sorted distinct values +
	// build-once code arrays), cached on first use. Tables are immutable
	// after load, so build-once-and-share is safe; encMu guards the cache
	// map against concurrent first builds.
	encMu sync.Mutex
	dicts map[string]*Dict
}

// NewTable assembles a table from columns, verifying equal lengths.
func NewTable(name string, cols []Column) (*Table, error) {
	t := &Table{Name: name, Columns: cols, colIndex: make(map[string]int, len(cols))}
	n := -1
	for i, c := range cols {
		if prev, dup := t.colIndex[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q duplicate column %q (positions %d and %d)", name, c.Name, prev, i)
		}
		t.colIndex[c.Name] = i
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("storage: table %q column %q has %d rows, want %d", name, c.Name, c.Len(), n)
		}
	}
	return t, nil
}

// NumRows reports the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.colIndex[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.Name, name)
	}
	return &t.Columns[i], nil
}

// MustColumn is Column for callers that validated names at plan time.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Database maps table names to stored tables; it is the executor's input.
type Database struct {
	tables map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{tables: make(map[string]*Table)} }

// AddTable stores a table, rejecting duplicates.
func (d *Database) AddTable(t *Table) error {
	if _, dup := d.tables[t.Name]; dup {
		return fmt.Errorf("storage: duplicate table %q", t.Name)
	}
	d.tables[t.Name] = t
	return nil
}

// Table looks up a stored table.
func (d *Database) Table(name string) (*Table, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// TableNames lists stored tables in sorted order.
func (d *Database) TableNames() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Analyze computes catalog statistics (row count, per-column NDV/min/max)
// from the stored data, playing the role of ANALYZE. NDV is exact (hash set)
// since tables are in memory; the estimator still treats it as an estimate.
func Analyze(t *Table) *catalog.Table {
	cols := make([]catalog.Column, len(t.Columns))
	for i := range t.Columns {
		c := &t.Columns[i]
		cc := catalog.Column{Name: c.Name, Type: c.Kind}
		switch c.Kind {
		case catalog.Int64:
			cc.Stats = intStats(c.Ints)
		case catalog.Float64:
			cc.Stats = floatStats(c.Floats)
		default:
			cc.Stats = stringStats(c.Strings)
		}
		cols[i] = cc
	}
	return catalog.NewTable(t.Name, float64(t.NumRows()), cols)
}

func intStats(v []int64) catalog.ColumnStats {
	if len(v) == 0 {
		return catalog.ColumnStats{}
	}
	seen := make(map[int64]struct{}, len(v))
	mn, mx := v[0], v[0]
	for _, x := range v {
		seen[x] = struct{}{}
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return catalog.ColumnStats{NDV: float64(len(seen)), Min: float64(mn), Max: float64(mx)}
}

func floatStats(v []float64) catalog.ColumnStats {
	if len(v) == 0 {
		return catalog.ColumnStats{}
	}
	seen := make(map[float64]struct{}, len(v))
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		seen[x] = struct{}{}
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return catalog.ColumnStats{NDV: float64(len(seen)), Min: mn, Max: mx}
}

func stringStats(v []string) catalog.ColumnStats {
	seen := make(map[string]struct{}, len(v))
	for _, x := range v {
		seen[x] = struct{}{}
	}
	return catalog.ColumnStats{NDV: float64(len(seen))}
}
