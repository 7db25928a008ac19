// Package mem is the process-wide memory broker of the executor: a global
// byte budget from which queries draw reservations and operators draw
// per-operator grants. Operators hold a Reservation and ask it to Grow
// before enlarging their state; a denied grant is the executor's signal to
// spill (the caller may pass a spill callback that frees memory — its own
// buffered state — after which the grant is retried). The broker only
// accounts; it never allocates. Budget zero (or negative) means unlimited,
// which keeps the in-memory fast path free of any spill machinery.
package mem

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bfcbo/internal/faults"
)

// SpillFunc is a spill callback invoked when a grant is denied: it should
// free operator state (spilling it to disk) and return the number of bytes
// it released. It runs on the goroutine that requested the grant, so it may
// safely touch that worker's private state.
type SpillFunc func(need int64) (freed int64)

// Broker is the process-wide memory account. Accounting is lock-free —
// workers of every pipeline request grants at batch granularity, so the
// broker sits on the executor's hot path and must not serialize it.
type Broker struct {
	budget        int64 // <= 0 means unlimited
	used          atomic.Int64
	peak          atomic.Int64
	denied        atomic.Int64
	spillTriggers atomic.Int64
}

// NewBroker creates a broker with the given byte budget; budget <= 0 means
// unlimited (every grant succeeds, accounting still tracked).
func NewBroker(budget int64) *Broker {
	return &Broker{budget: budget}
}

// Budget returns the configured byte budget (<= 0 means unlimited).
func (b *Broker) Budget() int64 { return b.budget }

// Used returns the bytes currently reserved across all queries.
func (b *Broker) Used() int64 { return b.used.Load() }

// Peak returns the high-water mark of reserved bytes.
func (b *Broker) Peak() int64 { return b.peak.Load() }

// Denials returns how many grant requests were denied (after any spill
// callback ran).
func (b *Broker) Denials() int64 { return b.denied.Load() }

// SpillTriggers returns how many denied grants invoked a spill callback —
// the broker-side count of spill events, distinct from Denials (a grant
// can be denied with no callback attached, and a callback can free enough
// for the retry to succeed, which never reaches Denials).
func (b *Broker) SpillTriggers() int64 { return b.spillTriggers.Load() }

// grant attempts to reserve n bytes; force bypasses the budget check.
func (b *Broker) grant(n int64, force bool) bool {
	if force || b.budget <= 0 {
		bumpPeak(&b.peak, b.used.Add(n))
		return true
	}
	for {
		used := b.used.Load()
		if used+n > b.budget {
			return false
		}
		if b.used.CompareAndSwap(used, used+n) {
			bumpPeak(&b.peak, used+n)
			return true
		}
	}
}

// bumpPeak raises a high-water mark to used if it is below it.
func bumpPeak(peak *atomic.Int64, used int64) {
	for {
		p := peak.Load()
		if used <= p || peak.CompareAndSwap(p, used) {
			return
		}
	}
}

func (b *Broker) release(n int64) {
	b.used.Add(-n)
}

func (b *Broker) noteDenial() {
	b.denied.Add(1)
}

// Query is one query's account within the broker. Closing it releases
// every reservation the query still holds, which is what guarantees a
// failed or cancelled run returns its bytes.
type Query struct {
	br *Broker

	// used mirrors the sum of the query's reservations and peak is its
	// high-water mark; both move wherever a Reservation's held does, at
	// batch granularity like the broker's own counters.
	used atomic.Int64
	peak atomic.Int64

	mu   sync.Mutex
	res  []*Reservation
	done bool
}

// NewQuery opens a per-query account drawing from the broker's budget.
func (b *Broker) NewQuery() *Query {
	return &Query{br: b}
}

// Used returns the bytes this query currently holds.
func (q *Query) Used() int64 { return q.used.Load() }

// Peak returns the high-water mark of the bytes this query held — the
// per-query counterpart of Broker.Peak, which spans every query the
// broker ever served.
func (q *Query) Peak() int64 { return q.peak.Load() }

// Reserve opens a per-operator grant handle.
func (q *Query) Reserve() *Reservation {
	r := &Reservation{q: q}
	q.mu.Lock()
	q.res = append(q.res, r)
	q.mu.Unlock()
	return r
}

// Close releases every reservation of the query. Idempotent.
func (q *Query) Close() {
	q.mu.Lock()
	res := q.res
	q.res, q.done = nil, true
	q.mu.Unlock()
	for _, r := range res {
		r.Free()
	}
}

// Reservation is one operator's grant handle. Grow/Force/Release may be
// called concurrently from many workers of the operator; like the broker,
// the handle is lock-free because it sits on the per-batch hot path.
type Reservation struct {
	q    *Query
	held atomic.Int64
}

// take books n granted bytes on the reservation and its query.
func (r *Reservation) take(n int64) {
	r.held.Add(n)
	bumpPeak(&r.q.peak, r.q.used.Add(n))
}

// give returns n held bytes to the query and the broker.
func (r *Reservation) give(n int64) {
	r.q.used.Add(-n)
	r.q.br.release(n)
}

// Grow asks for n more bytes. When the budget cannot cover the request and
// onDeny is non-nil, onDeny is invoked — it should spill caller state and
// Release what it freed — and the request is retried once. Returns whether
// the grant was made; on false the caller must not grow its state (it
// should spill or Force).
func (r *Reservation) Grow(n int64, onDeny SpillFunc) bool {
	if n <= 0 {
		// Requesting nothing always succeeds — even when forced overage
		// already holds the account past its budget.
		return true
	}
	// The mem.deny fault spuriously denies this first attempt, pushing
	// the operator onto its spill/repartition path exactly as real
	// memory pressure would; the retry after onDeny grants normally, so
	// an injected denial perturbs the execution strategy, never the
	// result. Results are bit-identical across spill strategies, which
	// is what lets the chaos soak assert equality under this site.
	if faults.Hit(faults.MemDeny) == nil && r.q.br.grant(n, false) {
		r.take(n)
		return true
	}
	if onDeny != nil {
		r.q.br.spillTriggers.Add(1)
		onDeny(n)
		if r.q.br.grant(n, false) {
			r.take(n)
			return true
		}
	}
	r.q.br.noteDenial()
	return false
}

// Force reserves n bytes unconditionally — for allocations the operator
// cannot avoid (the final materialized result, fixed I/O buffers). The
// overage still counts against Used/Peak so reports stay honest.
func (r *Reservation) Force(n int64) {
	if n <= 0 {
		return
	}
	r.q.br.grant(n, true)
	r.take(n)
}

// Release returns n bytes to the broker (clamped to the held amount, so a
// double release cannot poison the account).
func (r *Reservation) Release(n int64) {
	if n <= 0 {
		return
	}
	for {
		held := r.held.Load()
		take := n
		if take > held {
			take = held
		}
		if take == 0 {
			return
		}
		if r.held.CompareAndSwap(held, held-take) {
			r.give(take)
			return
		}
	}
}

// Free releases everything the reservation holds. Idempotent.
func (r *Reservation) Free() {
	if n := r.held.Swap(0); n > 0 {
		r.give(n)
	}
}

// ParseBytes parses a human byte size: plain digits are bytes, and the
// suffixes KB/MB/GB (or K/M/G, case-insensitive) scale by 1024. An empty
// string or "0" means unlimited (0).
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		text string
		mult int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.mult
			upper = strings.TrimSuffix(upper, suf.text)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("mem: cannot parse byte size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("mem: negative byte size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("mem: byte size %q overflows int64", s)
	}
	return n * mult, nil
}

// FormatBytes renders a byte count compactly (e.g. "64KB", "1.5MB").
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return trimZero(fmt.Sprintf("%.1fGB", float64(n)/(1<<30)))
	case n >= 1<<20:
		return trimZero(fmt.Sprintf("%.1fMB", float64(n)/(1<<20)))
	case n >= 1<<10:
		return trimZero(fmt.Sprintf("%.1fKB", float64(n)/(1<<10)))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func trimZero(s string) string {
	return strings.Replace(s, ".0", "", 1)
}
