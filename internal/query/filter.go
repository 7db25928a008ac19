package query

import "bfcbo/internal/bloom"

// filterKernel is a Bloom filter as a chain member: it keeps the rows whose
// key the filter may hold. Compile never makes one, so rank never orders
// it; a scan appends its filters to the ranked predicates, in plan order.
type filterKernel struct {
	kernelMeta
	f    *bloom.Filter
	vals []int64
}

// Filter is the chain member that tests rows against f. vals is the key
// column by row id.
func Filter(f *bloom.Filter, vals []int64, label string) Kernel {
	return &filterKernel{kernelMeta: kernelMeta{label: label}, f: f, vals: vals}
}

func (k *filterKernel) EvalBatch(sel []int32) []int32 { return k.f.FilterSel(k.vals, sel) }

// EvalRange reads the keys in order (FilterRange).
func (k *filterKernel) EvalRange(lo int, sel []int32) []int32 {
	return k.f.FilterRange(k.vals, lo, sel)
}
