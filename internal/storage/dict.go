package storage

import (
	"fmt"
	"slices"
	"sort"

	"bfcbo/internal/catalog"
)

// Dict is how a string column is stored: the sorted distinct values plus
// a per-row code array mapping each row to its value's index in Values.
// Only Values holds pointers, one per distinct value, so the garbage
// collector never scans a per-row string. String predicates compile
// against it so the scan loop compares int32 codes instead of strings —
// an equality is one integer compare, a LIKE '%sub%' scans only the
// distinct values once and then matches codes.
type Dict struct {
	// Values holds the distinct column values in sorted order, so codes
	// preserve the values' ordering and lookups are binary searches.
	Values []string
	// Codes is the per-row encoding: Values[Codes[i]] == column[i].
	Codes []int32
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
