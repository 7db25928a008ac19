package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"bfcbo/internal/catalog"
)

// Dict is how a string column is stored: the sorted distinct values plus
// a per-row code array mapping each row to its value's index in Values.
// Only Values holds pointers, one per distinct value, so the garbage
// collector never scans a per-row string. String predicates compile
// against it so the scan loop compares int32 codes instead of strings —
// an equality is one integer compare, a LIKE '%sub%' scans only the
// distinct values, once per dictionary (Match), and then matches codes.
type Dict struct {
	// Values holds the distinct column values in sorted order, so codes
	// preserve the values' ordering and lookups are binary searches.
	Values []string
	// Codes is the per-row encoding: Values[Codes[i]] == column[i].
	Codes []int32

	// memo holds Match's tables, each a pure function of the immutable
	// Values and its key.
	mu        sync.Mutex
	memo      map[string][]bool
	memoBytes int
}

// Match returns the match table of one string test over the dictionary:
// entry i is test(Values[i]), so a row passes when its code's entry is
// true. The table is built once per key and kept: key must determine the
// test, and the table must not be modified. The tables kept, with their
// keys, hold no more bytes than the Codes array (four a row); a table that
// would pass that bound is built on every call and not kept. Safe for
// concurrent use: two first calls with one key may both build the table,
// and the first to finish keeps it.
func (d *Dict) Match(key string, test func(string) bool) []bool {
	d.mu.Lock()
	m, ok := d.memo[key]
	d.mu.Unlock()
	if ok {
		return m
	}
	m = make([]bool, len(d.Values))
	for i, v := range d.Values {
		m[i] = test(v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if kept, ok := d.memo[key]; ok {
		return kept
	}
	if size := len(key) + len(m); d.memoBytes+size <= 4*len(d.Codes) {
		if d.memo == nil {
			d.memo = make(map[string][]bool)
		}
		d.memo[key] = m
		d.memoBytes += size
	}
	return m
}

// Code returns the code of v, or (0, false) when v does not occur in the
// column — the caller then knows an equality predicate matches nothing.
func (d *Dict) Code(v string) (int32, bool) {
	i := sort.SearchStrings(d.Values, v)
	if i < len(d.Values) && d.Values[i] == v {
		return int32(i), true
	}
	return 0, false
}

// Dict returns the named string column's dictionary.
func (t *Table) Dict(name string) (*Dict, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != catalog.String {
		return nil, fmt.Errorf("storage: table %q column %q is %s, not a string column", t.Name, name, c.Kind)
	}
	return c.Dict, nil
}

// buildDict encodes vals in one pass that numbers the values as they
// first appear, then renumbers the codes in sorted value order.
func buildDict(vals []string) *Dict {
	codeOf := make(map[string]int32, 256)
	var seen []string
	codes := make([]int32, len(vals))
	for i, v := range vals {
		c, ok := codeOf[v]
		if !ok {
			c = int32(len(seen))
			codeOf[v] = c
			seen = append(seen, v)
		}
		codes[i] = c
	}
	values := slices.Sorted(slices.Values(seen))
	rank := make([]int32, len(seen))
	for c, v := range seen {
		rank[c] = int32(sort.SearchStrings(values, v))
	}
	for i, c := range codes {
		codes[i] = rank[c]
	}
	return &Dict{Values: values, Codes: codes}
}
