package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"bfcbo/internal/storage"
	"bfcbo/internal/vec"
)

// Kernel is the vectorized form of one predicate, bound to a table's typed
// column slices at compile time. EvalBatch filters a selection vector in
// place — no per-row Column() lookups and no interface dispatch inside the
// loop — and returns the surviving prefix. Every loop compacts without a
// branch on the outcome, the way bloom.Filter.FilterSel does: it stores
// the row at the write index and advances the index only on a pass
// (Ross, "Selection Conditions in Main Memory", TODS 2004). A selection
// vector holds distinct row ids, in any order. Kernels are immutable after
// Compile and safe to share across scan workers.
//
// Every int64 predicate on one column, BETWEEN and all six compares,
// compiles to one kernel and one unsigned compare (intRangeKernel), and
// every float64 one to one kernel and one range test (floatRangeKernel).
// The dense entries of every column kernel but dictMatch, and the gather
// entries of floatRange and cmpCols, have a vector form: on a CPU with
// AVX-512, a vec loop tests eight rows an instruction (sixteen dictionary
// codes in dictEq's) and writes the kept ids with one compress and one
// store, and the kernel's Go loop goes on from the first row it left: a
// partial block at most, or a gather's block that holds an id outside the
// column. Without AVX-512, or on another architecture, the Go loop runs
// every row. Both keep the same ids in the same order, so no count depends
// on the CPU.
type Kernel interface {
	// EvalBatch keeps the selected rows that satisfy the predicate,
	// compacting sel in place, in its order, and returning the kept prefix.
	EvalBatch(sel []int32) []int32
	// Label is the predicate's display string for runtime counters.
	Label() string
	// weight is a static relative cost per row, which Compile's rank
	// divides by the rows the kernel eliminates.
	weight() float64
}

// rangeKernel is a kernel that can start a morsel: the column kernels
// (intRange, floatRange, cmpCols, dictEq, dictMatch) and the Bloom filter
// members (filterKernel).
// EvalRange is EvalBatch over the dense rows lo … lo+len(sel)-1: it
// ignores sel's contents on entry, reads the column at [lo, lo+len(sel))
// in order and writes the kept ids into sel's prefix, so the caller never
// writes the row ids it would read back. The composite kernels (in, not,
// or, and) read no single column in order; Chain.EvalRange fills their ids
// and runs EvalBatch.
type rangeKernel interface {
	EvalRange(lo int, sel []int32) []int32
}

// Compile lowers a predicate into a conjunction of kernels bound to t's
// columns, in the order a scan evaluates them. A top-level And flattens
// into one kernel per conjunct, ordered once by rank; any other predicate
// compiles to a single kernel. String predicates compile against the
// column's dictionary, built at load, and run as int32 code compares.
func Compile(p Predicate, t *storage.Table) ([]Kernel, error) {
	and, ok := p.(And)
	if !ok {
		if p == nil {
			return nil, nil
		}
		k, err := compileNode(p, t)
		if err != nil {
			return nil, err
		}
		return []Kernel{k}, nil
	}
	var ks []Kernel
	for _, q := range and.Ps {
		sub, err := Compile(q, t)
		if err != nil {
			return nil, err
		}
		ks = append(ks, sub...)
	}
	rank(ks, t.NumRows())
	return ks, nil
}

// sampleRows is how many rows, spread evenly over the table, rank
// measures each conjunct's pass rate on.
const sampleRows = 1024

// rank sorts ks stably by weight / max(1 − pass, 0.01), a kernel's cost
// per row it eliminates, with its pass rate measured on up to sampleRows
// rows spread evenly over the table's n rows: cheap, selective predicates
// run first and expensive ones see fewer rows. The order is a function of
// the table and the predicate, so every worker of a scan, at any DOP,
// evaluates the same chain.
func rank(ks []Kernel, n int) {
	m := min(n, sampleRows)
	if len(ks) < 2 || m == 0 {
		return
	}
	sample, scratch := make([]int32, m), make([]int32, m)
	for i := range sample {
		sample[i] = int32(i * n / m)
	}
	cost := make(map[Kernel]float64, len(ks))
	for _, k := range ks {
		pass := float64(len(k.EvalBatch(append(scratch[:0], sample...)))) / float64(m)
		cost[k] = k.weight() / max(1-pass, 0.01)
	}
	slices.SortStableFunc(ks, func(a, b Kernel) int { return cmp.Compare(cost[a], cost[b]) })
}

// kernelMeta carries the shared Label/weight implementation.
type kernelMeta struct {
	label string
	w     float64
}

func (m kernelMeta) Label() string   { return m.label }
func (m kernelMeta) weight() float64 { return m.w }

func meta(p Predicate, w float64) kernelMeta { return kernelMeta{label: p.String(), w: w} }

// splitOp writes a comparison as a base compare and whether to negate it:
// NE is !EQ, GE is !LT and GT is !LE. These are cmpHolds's forms, so a NaN
// float passes NE, GT and GE just as the scalar Eval decides.
func splitOp(op CmpOp) (base CmpOp, neg bool) {
	switch op {
	case NE:
		return EQ, true
	case GE:
		return LT, true
	case GT:
		return LE, true
	}
	return op, false
}

// fillRange writes the dense row ids lo … lo+len(sel)-1 into sel.
func fillRange(lo int, sel []int32) []int32 {
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	return sel
}

// vectorLoops lets the kernels run their vec loop before their Go loop;
// the tests turn it off (export_test.go) to run the Go loops alone.
var vectorLoops = true

// vecCmp is splitOp's base compare as vec's.
var vecCmp = [...]vec.Cmp{EQ: vec.EQ, LT: vec.LT, LE: vec.LE}

// intRangeKernel is every int64 predicate on one column: it keeps the rows
// whose value v has uint64(v-low) <= width, or, with neg, the rows that
// fail it. The one unsigned compare wraps correctly over the whole int64
// range (intRange maps each predicate to its bounds).
type intRangeKernel struct {
	kernelMeta
	vals  []int64
	low   int64
	width uint64
	neg   bool
}

// intRange writes lo <= v <= hi as intRangeKernel's bounds; lo > hi keeps
// nothing, as the negation of a range that holds every value.
func intRange(lo, hi int64) (low int64, width uint64, neg bool) {
	if lo > hi {
		return 0, math.MaxUint64, true
	}
	return lo, uint64(hi - lo), false
}

// intCmpRange writes v op c as intRangeKernel's bounds: EQ is [c, c], LE
// is [MinInt64, c] and GE is [c, MaxInt64]; NE, GT and LT negate them.
func intCmpRange(op CmpOp, c int64) (low int64, width uint64, neg bool) {
	lo, hi := c, c
	switch op {
	case LE, GT:
		lo = math.MinInt64
	case GE, LT:
		hi = math.MaxInt64
	}
	low, width, _ = intRange(lo, hi)
	return low, width, op == NE || op == GT || op == LT
}

func (k *intRangeKernel) EvalBatch(sel []int32) []int32 {
	vals, low, width, neg := k.vals, k.low, k.width, k.neg
	n := 0
	for _, r := range sel {
		sel[n] = r
		if (uint64(vals[r]-low) <= width) != neg {
			n++
		}
	}
	return sel[:n]
}

// EvalRange tests the whole blocks of eight rows with vec.KeepRange where
// the CPU can, then the rest in Go.
func (k *intRangeKernel) EvalRange(lo int, sel []int32) []int32 {
	vals, low, width, neg := k.vals[lo:lo+len(sel)], k.low, k.width, k.neg
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.KeepRange(vals, int32(lo), low, width, neg, sel)
	}
	id := int32(lo + done)
	for _, v := range vals[done:] {
		sel[n] = id
		if (uint64(v-low) <= width) != neg {
			n++
		}
		id++
	}
	return sel[:n]
}

// floatRangeKernel is every float64 predicate on one column: it keeps the
// rows whose value v has lo <= v <= hi, or, with neg, the rows that fail
// it, so a NaN passes only a negated range, as cmpHolds decides
// (floatCmpRange). Its Go loops test v <= hi alone when lo is -Inf (every
// compare but EQ and NE) and give a negated range, NE's, a loop of its
// own: flipping every outcome slowed the plain range loop by a sixth.
type floatRangeKernel struct {
	kernelMeta
	vals   []float64
	lo, hi float64
	neg    bool
}

// floatCmpRange writes v op c as floatRangeKernel's bounds: EQ is [c, c],
// LE is [-Inf, c] and LT is [-Inf, c's predecessor], or the empty range
// when c is -Inf; NE, GT and GE negate them.
func floatCmpRange(op CmpOp, c float64) (lo, hi float64, neg bool) {
	base, neg := splitOp(op)
	switch {
	case base == EQ:
		return c, c, neg
	case base == LE:
		return math.Inf(-1), c, neg
	case math.IsInf(c, -1):
		return math.Inf(1), math.Inf(-1), neg
	}
	return math.Inf(-1), math.Nextafter(c, math.Inf(-1)), neg
}

// EvalBatch gathers and tests the whole blocks of eight selected rows with
// vec.BetweenFloatSel where the CPU can, then the rest in Go.
func (k *floatRangeKernel) EvalBatch(sel []int32) []int32 {
	vals, lo, hi, neg := k.vals, k.lo, k.hi, k.neg
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.BetweenFloatSel(vals, lo, hi, neg, sel)
	}
	switch {
	case math.IsInf(lo, -1):
		for _, r := range sel[done:] {
			sel[n] = r
			if (vals[r] <= hi) != neg {
				n++
			}
		}
	case neg:
		for _, r := range sel[done:] {
			v := vals[r]
			sel[n] = r
			n += 1 - b2i(v >= lo)&b2i(v <= hi)
		}
	default:
		for _, r := range sel[done:] {
			v := vals[r]
			sel[n] = r
			n += b2i(v >= lo) & b2i(v <= hi)
		}
	}
	return sel[:n]
}

// EvalRange tests the whole blocks of eight rows with vec.BetweenFloat
// where the CPU can, then the rest in Go.
func (k *floatRangeKernel) EvalRange(lo int, sel []int32) []int32 {
	vals, low, high, neg := k.vals[lo:lo+len(sel)], k.lo, k.hi, k.neg
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.BetweenFloat(vals, int32(lo), low, high, neg, sel)
	}
	id := int32(lo + done)
	switch {
	case math.IsInf(low, -1):
		for _, v := range vals[done:] {
			sel[n] = id
			if (v <= high) != neg {
				n++
			}
			id++
		}
	case neg:
		for _, v := range vals[done:] {
			sel[n] = id
			n += 1 - b2i(v >= low)&b2i(v <= high)
			id++
		}
	default:
		for _, v := range vals[done:] {
			sel[n] = id
			n += b2i(v >= low) & b2i(v <= high)
			id++
		}
	}
	return sel[:n]
}

// b2i is 1 for true and 0 for false; the compiler emits it as a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpColsKernel compares two int64 columns of the same relation.
type cmpColsKernel struct {
	kernelMeta
	a, b []int64
	op   CmpOp
}

// EvalBatch gathers and compares the whole blocks of eight selected rows
// with vec.CmpColsSel where the CPU can, then the rest in Go.
func (k *cmpColsKernel) EvalBatch(sel []int32) []int32 {
	a, b := k.a, k.b
	base, neg := splitOp(k.op)
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.CmpColsSel(a, b, vecCmp[base], neg, sel)
	}
	switch base {
	case EQ:
		for _, r := range sel[done:] {
			sel[n] = r
			if (a[r] == b[r]) != neg {
				n++
			}
		}
	case LT:
		for _, r := range sel[done:] {
			sel[n] = r
			if (a[r] < b[r]) != neg {
				n++
			}
		}
	case LE:
		for _, r := range sel[done:] {
			sel[n] = r
			if (a[r] <= b[r]) != neg {
				n++
			}
		}
	}
	return sel[:n]
}

// EvalRange compares the whole blocks of eight rows with vec.CmpCols
// where the CPU can, then the rest in Go.
func (k *cmpColsKernel) EvalRange(lo int, sel []int32) []int32 {
	a := k.a[lo : lo+len(sel)]
	b := k.b[lo : lo+len(a)]
	base, neg := splitOp(k.op)
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.CmpCols(a, b, int32(lo), vecCmp[base], neg, sel)
	}
	a, b, id := a[done:], b[done:], int32(lo+done)
	switch base {
	case EQ:
		for i, x := range a {
			sel[n] = id
			if (x == b[i]) != neg {
				n++
			}
			id++
		}
	case LT:
		for i, x := range a {
			sel[n] = id
			if (x < b[i]) != neg {
				n++
			}
			id++
		}
	case LE:
		for i, x := range a {
			sel[n] = id
			if (x <= b[i]) != neg {
				n++
			}
			id++
		}
	}
	return sel[:n]
}

// inIntKernel keeps rows whose value appears in vals by a linear scan of
// the constants: IN lists here are a handful of them. Each row ORs every
// constant's match, so the loop has no early exit.
type inIntKernel struct {
	kernelMeta
	col  []int64
	vals []int64
}

func (k *inIntKernel) EvalBatch(sel []int32) []int32 {
	col, vals := k.col, k.vals
	n := 0
	for _, r := range sel {
		v, hit := col[r], 0
		for _, x := range vals {
			hit |= b2i(v == x)
		}
		sel[n] = r
		n += hit
	}
	return sel[:n]
}

// dictEqKernel is StrEq/StrNE over dictionary codes: one int32 compare per
// row. When the constant is absent from the dictionary, equality matches
// nothing and inequality matches everything.
type dictEqKernel struct {
	kernelMeta
	codes   []int32
	code    int32
	present bool
	neg     bool // true for <>
}

func (k *dictEqKernel) EvalBatch(sel []int32) []int32 {
	if !k.present {
		if k.neg {
			return sel
		}
		return sel[:0]
	}
	codes, code, neg := k.codes, k.code, k.neg
	n := 0
	for _, r := range sel {
		sel[n] = r
		if (codes[r] == code) != neg {
			n++
		}
	}
	return sel[:n]
}

// EvalRange tests the whole blocks of sixteen codes with vec.EqCodes
// where the CPU can, then the rest in Go.
func (k *dictEqKernel) EvalRange(lo int, sel []int32) []int32 {
	if !k.present {
		if k.neg {
			return fillRange(lo, sel)
		}
		return sel[:0]
	}
	codes, code, neg := k.codes[lo:lo+len(sel)], k.code, k.neg
	n, done := 0, 0
	if vectorLoops {
		n, done = vec.EqCodes(codes, int32(lo), code, neg, sel)
	}
	id := int32(lo + done)
	for _, c := range codes[done:] {
		sel[n] = id
		if (c == code) != neg {
			n++
		}
		id++
	}
	return sel[:n]
}

// dictMatchKernel evaluates an arbitrary string predicate as a code-table
// lookup: the predicate ran once per distinct dictionary value, the first
// time any run compiled it (dictMatch), so the per-row work is two array
// loads.
type dictMatchKernel struct {
	kernelMeta
	codes []int32
	match []bool
}

func (k *dictMatchKernel) EvalBatch(sel []int32) []int32 {
	codes, match := k.codes, k.match
	n := 0
	for _, r := range sel {
		sel[n] = r
		if match[codes[r]] {
			n++
		}
	}
	return sel[:n]
}

func (k *dictMatchKernel) EvalRange(lo int, sel []int32) []int32 {
	codes, match := k.codes[lo:lo+len(sel)], k.match
	n, id := 0, int32(lo)
	for _, c := range codes {
		sel[n] = id
		if match[c] {
			n++
		}
		id++
	}
	return sel[:n]
}

// notKernel negates an arbitrary inner kernel: the inner kernel runs on a
// copy of the selection, and the rows it kept are the ones dropped.
// Compile inverts dictionary kernels directly instead, so this only wraps
// numeric and composite predicates.
type notKernel struct {
	kernelMeta
	inner Kernel
}

func (k *notKernel) EvalBatch(sel []int32) []int32 {
	buf := getScratch(len(sel) + 1)
	sel = minus(sel, k.inner.EvalBatch(append((*buf)[:0], sel...)))
	scratchPool.Put(buf)
	return sel
}

// orKernel runs its members in declared order, each only on the rows no
// earlier member kept, and drops the rows that are left at the end.
type orKernel struct {
	kernelMeta
	ks []Kernel
}

func (k *orKernel) EvalBatch(sel []int32) []int32 {
	n := len(sel)
	buf := getScratch(2*n + 2)
	rest := append((*buf)[:0:n+1], sel...) // the rows no member kept yet
	try := (*buf)[n+1 : n+1]
	for _, sub := range k.ks {
		if len(rest) == 0 {
			break
		}
		rest = minus(rest, sub.EvalBatch(append(try, rest...)))
	}
	sel = minus(sel, rest)
	scratchPool.Put(buf)
	return sel
}

// scratchPool recycles the selection copies of the NOT and OR kernels.
// The kernels are shared by every worker of a scan, so the copies cannot
// live in them, and allocating one per batch would put the allocator in
// the scan's loop.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

// getScratch takes a pooled buffer of at least n ids from scratchPool.
func getScratch(n int) *[]int32 {
	buf := scratchPool.Get().(*[]int32)
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return buf
}

// minus compacts sel in place to the rows drop does not hold. drop is what
// a kernel kept of a copy of sel, so its rows are a subsequence of sel's,
// and sel's ids are distinct: one walk finds them, without a branch on the
// outcome. drop must have room for one more id, a -1 that no row matches.
func minus(sel, drop []int32) []int32 {
	drop = append(drop, -1)
	n, j := 0, 0
	for _, r := range sel {
		sel[n] = r
		hit := b2i(drop[j] == r)
		j += hit
		n += 1 - hit
	}
	return sel[:n]
}

// andKernel is a nested conjunction (below a Not/Or), ordered by Compile
// as a top-level one is.
type andKernel struct {
	kernelMeta
	ks []Kernel
}

func (k *andKernel) EvalBatch(sel []int32) []int32 {
	for _, sub := range k.ks {
		if len(sel) == 0 {
			break
		}
		sel = sub.EvalBatch(sel)
	}
	return sel
}

func compileNode(p Predicate, t *storage.Table) (Kernel, error) {
	if col, test, w, ok := strTest(p); ok {
		return dictMatch(p, t, col, w, test)
	}
	switch q := p.(type) {
	case CmpInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		low, width, neg := intCmpRange(q.Op, q.Val)
		return &intRangeKernel{kernelMeta: meta(p, 1.0), vals: c.Ints, low: low, width: width, neg: neg}, nil
	case CmpFloat:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		lo, hi, neg := floatCmpRange(q.Op, q.Val)
		return &floatRangeKernel{kernelMeta: meta(p, 1.0), vals: c.Floats, lo: lo, hi: hi, neg: neg}, nil
	case CmpCols:
		a, err := t.Column(q.Col1)
		if err != nil {
			return nil, err
		}
		b, err := t.Column(q.Col2)
		if err != nil {
			return nil, err
		}
		return &cmpColsKernel{kernelMeta: meta(p, 1.2), a: a.Ints, b: b.Ints, op: q.Op}, nil
	case BetweenInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		low, width, neg := intRange(q.Lo, q.Hi)
		return &intRangeKernel{kernelMeta: meta(p, 1.1), vals: c.Ints, low: low, width: width, neg: neg}, nil
	case BetweenFloat:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		return &floatRangeKernel{kernelMeta: meta(p, 1.1), vals: c.Floats, lo: q.Lo, hi: q.Hi}, nil
	case InInt:
		c, err := t.Column(q.Col)
		if err != nil {
			return nil, err
		}
		w := 0.6 + 0.2*float64(len(q.Vals))
		return &inIntKernel{kernelMeta: meta(p, w), col: c.Ints, vals: q.Vals}, nil
	case StrEq:
		d, err := t.Dict(q.Col)
		if err != nil {
			return nil, err
		}
		code, ok := d.Code(q.Val)
		return &dictEqKernel{kernelMeta: meta(p, 1.0), codes: d.Codes, code: code, present: ok}, nil
	case StrNE:
		d, err := t.Dict(q.Col)
		if err != nil {
			return nil, err
		}
		code, ok := d.Code(q.Val)
		return &dictEqKernel{kernelMeta: meta(p, 1.0), codes: d.Codes, code: code, present: ok, neg: true}, nil
	case Not:
		inner, err := compileNode(q.P, t)
		if err != nil {
			return nil, err
		}
		switch ik := inner.(type) {
		case *dictEqKernel:
			return &dictEqKernel{kernelMeta: meta(p, ik.w), codes: ik.codes,
				code: ik.code, present: ik.present, neg: !ik.neg}, nil
		default:
			return &notKernel{kernelMeta: meta(p, inner.weight()+0.2), inner: inner}, nil
		}
	case Or:
		ks := make([]Kernel, len(q.Ps))
		w := 0.3
		for i, sub := range q.Ps {
			k, err := compileNode(sub, t)
			if err != nil {
				return nil, err
			}
			ks[i] = k
			w += k.weight()
		}
		return &orKernel{kernelMeta: meta(p, w), ks: ks}, nil
	case And:
		ks, err := Compile(q, t)
		if err != nil {
			return nil, err
		}
		w := 0.0
		for _, k := range ks {
			w += k.weight()
		}
		return &andKernel{kernelMeta: meta(p, w), ks: ks}, nil
	default:
		return nil, fmt.Errorf("query: no kernel for predicate type %T (%s)", p, p.String())
	}
}

// dictMatch compiles p, a string predicate that strTest knows, into a
// code lookup. Its match table, the test run once per distinct dictionary
// value, is kept on the dictionary (storage.Dict.Match), so a predicate
// is matched once per dictionary, not once per run. The table's key is
// the predicate's Go syntax, which, unlike its label, names every
// constant unambiguously: StrIn{Vals: ["a','b"]} and StrIn{Vals: ["a",
// "b"]} print the same label.
func dictMatch(p Predicate, t *storage.Table, col string, w float64, test func(string) bool) (Kernel, error) {
	d, err := t.Dict(col)
	if err != nil {
		return nil, err
	}
	match := d.Match(fmt.Sprintf("%#v", p), test)
	return &dictMatchKernel{kernelMeta: meta(p, w), codes: d.Codes, match: match}, nil
}

// strTest is the test of one string value for the predicates that compile
// to a dictMatchKernel: IN, the LIKE forms and a NOT of any of them. w is
// the kernel's weight, ok false for any other predicate.
func strTest(p Predicate) (col string, test func(string) bool, w float64, ok bool) {
	switch q := p.(type) {
	case StrIn:
		return q.Col, func(s string) bool { return slices.Contains(q.Vals, s) }, 1.1, true
	case StrPrefix:
		return q.Col, func(s string) bool { return strings.HasPrefix(s, q.Prefix) }, 1.1, true
	case StrContains:
		return q.Col, func(s string) bool { return containsOrdered(s, q.Subs) }, 1.2, true
	case Not:
		if col, test, w, ok := strTest(q.P); ok {
			return col, func(s string) bool { return !test(s) }, w, true
		}
	}
	return "", nil, 0, false
}

func containsOrdered(s string, subs []string) bool {
	for _, sub := range subs {
		i := strings.Index(s, sub)
		if i < 0 {
			return false
		}
		s = s[i+len(sub):]
	}
	return true
}

// PredCount is one kernel's observed row flow, in evaluation order.
type PredCount struct {
	Pred    string
	In, Out int64
}

// Chain evaluates a conjunction of kernels over selection vectors in the
// order it is given, counting each kernel's rows in and out, and breaks
// off as soon as the selection empties. A scan's chain is Compile's ranked
// predicates followed by its Bloom filters (Filter), in plan order and
// never ranked: the filters are the chain's unranked tail. A scan enters
// through EvalRange once per morsel, so the first member, a column kernel
// or a filter, reads its column over the morsel's dense rows and the rest
// compact what it kept. A Chain's counters are per-worker state, not safe
// for concurrent use; the kernels it references are shared and immutable.
type Chain struct {
	ks      []Kernel
	in, out []int64
}

// NewChain counts rows through ks in the order given. A scan makes one
// per worker and run, so its counters share one allocation.
func NewChain(ks []Kernel) *Chain {
	c := make([]int64, 2*len(ks))
	return &Chain{ks: ks, in: c[:len(ks)], out: c[len(ks):]}
}

// EvalBatch runs the chain over sel, compacting in place.
func (c *Chain) EvalBatch(sel []int32) []int32 { return c.evalFrom(0, sel) }

// EvalRange runs the chain over the dense rows lo … lo+len(sel)-1 and
// returns the kept ids in sel's prefix; sel's contents on entry are
// ignored. A column kernel or filter first in order runs its EvalRange, so
// no row-id vector is written for it to read back; any other kernel gets
// the ids filled in and runs EvalBatch. An empty chain keeps every row.
func (c *Chain) EvalRange(lo int, sel []int32) []int32 {
	if len(c.ks) == 0 {
		return fillRange(lo, sel)
	}
	n := len(sel)
	if k, ok := c.ks[0].(rangeKernel); ok {
		sel = k.EvalRange(lo, sel)
	} else {
		sel = c.ks[0].EvalBatch(fillRange(lo, sel))
	}
	c.in[0] += int64(n)
	c.out[0] += int64(len(sel))
	return c.evalFrom(1, sel)
}

// evalFrom runs the kernels from position j on over sel.
func (c *Chain) evalFrom(j int, sel []int32) []int32 {
	for i := j; i < len(c.ks) && len(sel) > 0; i++ {
		n := len(sel)
		sel = c.ks[i].EvalBatch(sel)
		c.in[i] += int64(n)
		c.out[i] += int64(len(sel))
	}
	return sel
}

// Counts snapshots observed per-kernel row flow in evaluation order.
func (c *Chain) Counts() []PredCount {
	out := make([]PredCount, len(c.ks))
	for i, k := range c.ks {
		out[i] = PredCount{Pred: k.Label(), In: c.in[i], Out: c.out[i]}
	}
	return out
}
