package storage

import (
	"fmt"
	"sort"

	"bfcbo/internal/catalog"
)

// Dict is the dictionary encoding of one string column: the sorted
// distinct values plus a per-row code array mapping each row to its
// value's index in Values. String predicates compile against it so the
// scan loop compares int32 codes instead of strings — an equality is one
// integer compare, a LIKE '%sub%' scans only the distinct values once and
// then matches codes.
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

// Dict returns the named string column's dictionary encoding, building
// and caching it on first use (the build is one sort of the distinct
// values plus one pass over the rows).
func (t *Table) Dict(name string) (*Dict, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	if c.Kind != catalog.String {
		return nil, fmt.Errorf("storage: table %q column %q is %s, not a string column", t.Name, name, c.Kind)
	}
	t.encMu.Lock()
	defer t.encMu.Unlock()
	if d, ok := t.dicts[name]; ok {
		return d, nil
	}
	d := buildDict(c.Strings)
	if t.dicts == nil {
		t.dicts = make(map[string]*Dict)
	}
	t.dicts[name] = d
	return d, nil
}

func buildDict(vals []string) *Dict {
	codeOf := make(map[string]int32, 256)
	for _, v := range vals {
		codeOf[v] = 0
	}
	uniq := make([]string, 0, len(codeOf))
	for v := range codeOf {
		uniq = append(uniq, v)
	}
	sort.Strings(uniq)
	for i, v := range uniq {
		codeOf[v] = int32(i)
	}
	codes := make([]int32, len(vals))
	for i, v := range vals {
		codes[i] = codeOf[v]
	}
	return &Dict{Values: uniq, Codes: codes}
}
