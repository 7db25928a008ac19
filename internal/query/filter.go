package query

import "bfcbo/internal/bloom"

// filterKernel is a Bloom filter as a chain member: it keeps the rows whose
// key the filter may hold. Compile never makes one, so rank never orders
// it; a scan appends its filters to the ranked predicates, in plan order.
type filterKernel struct {
	kernelMeta
	f           *bloom.Filter
	vals, vals2 []int64
}

// Filter is the chain member that tests rows against f. vals is the key
// column by row id; a two-column filter's second column is vals2 (nil for
// one column), and a row's key is bloom.CombineKeys of the two, as the
// build side inserts it.
func Filter(f *bloom.Filter, vals, vals2 []int64, label string) Kernel {
	return &filterKernel{kernelMeta: kernelMeta{label: label}, f: f, vals: vals, vals2: vals2}
}

func (k *filterKernel) EvalBatch(sel []int32) []int32 {
	if k.vals2 == nil {
		return k.f.FilterSel(k.vals, sel)
	}
	f, a, b := k.f, k.vals, k.vals2
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += b2i(f.MayContainHash(bloom.KeyHash(bloom.CombineKeys(a[r], b[r]))))
	}
	return sel[:n]
}

// EvalRange reads a one-column filter's keys in order (FilterRange). A
// two-column filter, whose cost is its two mixers, tests the filled ids.
func (k *filterKernel) EvalRange(lo int, sel []int32) []int32 {
	if k.vals2 == nil {
		return k.f.FilterRange(k.vals, lo, sel)
	}
	return k.EvalBatch(fillRange(lo, sel))
}
