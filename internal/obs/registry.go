// Package obs is the engine's observability substrate: a process-wide
// metrics registry (allocation-free counters, gauges, and fixed-bucket
// histograms with Prometheus-style text exposition and an in-process
// snapshot API), query-lifecycle tracing exportable as Chrome trace-event
// JSON, and a slow-query flight recorder that retains the full EXPLAIN
// ANALYZE, scheduling, memory, and spill picture of the worst recent
// queries.
//
// Design rule: nothing in this package may allocate on a per-event hot
// path. Counters are single atomic adds and gauges are functions read at
// exposition time; histogram observation is a linear scan over a small
// fixed bounds array plus two atomic adds;
// span recording appends into a preallocated slice under a mutex (the
// executor records spans at pipeline granularity, never per batch — hot
// per-row/per-batch counters are folded from per-worker locals at Close,
// the PR 6 pattern, and land here once per query).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates metric types in snapshots and exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing metric. The zero value is usable
// but a Counter should normally come from Registry.NewCounter so it is
// exported and snapshotted.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: cumulative bucket counts over the
// configured upper bounds plus an implicit +Inf bucket, with a running sum.
// Observation is allocation-free: a linear scan over the (small) bounds
// array and two atomic adds.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the winning bucket; returns 0 for an empty histogram. The +Inf
// bucket reports its lower bound (the histogram cannot see past it).
func (h *Histogram) quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		prev := cum
		cum += c
		if float64(cum) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				return lo // +Inf bucket
			}
			frac := (rank - float64(prev)) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// LatencyBuckets is the default bound set for engine latencies, in seconds:
// 100µs to ~100s in roughly 3× steps.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// metric is one registered metric and its identity.
type metric struct {
	name string
	help string
	kind Kind

	counter *Counter
	gfn     func() float64 // gauge func (live state, read at exposition)
	cfn     func() int64   // counter func (cumulative state owned elsewhere)
	hist    *Histogram
}

// Registry holds a set of named metrics. Registration is rare (startup);
// reads and writes of the metrics themselves never touch the registry
// lock. Registering a name twice returns the existing metric when the kind
// matches (so several engines in one process share process-wide series);
// func-backed metrics rebind to the newest function — last engine wins.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Default is the process-wide registry the engine's metrics live in.
var Default = NewRegistry()

func (r *Registry) lookup(name string, kind Kind) (*metric, bool) {
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m, true
	}
	return nil, false
}

func (r *Registry) add(m *metric) {
	r.metrics = append(r.metrics, m)
	r.byName[m.name] = m
}

// NewCounter registers (or returns the existing) counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindCounter); ok && m.counter != nil {
		return m.counter
	}
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// NewCounterFunc registers a counter whose cumulative value lives elsewhere
// (e.g. the memory broker's denial count) and is read at exposition time —
// zero wiring cost on the owner's hot path. Re-registration rebinds fn.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindCounter); ok {
		m.cfn = fn
		return
	}
	r.add(&metric{name: name, help: help, kind: KindCounter, cfn: fn})
}

// NewGaugeFunc registers a gauge read from live state at exposition time
// (slot pool occupancy, broker reservation level). Re-registration rebinds
// fn — when several engines share one process-wide registry, the newest
// engine's live state is the one exposed.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindGauge); ok {
		m.gfn = fn
		return
	}
	r.add(&metric{name: name, help: help, kind: KindGauge, gfn: fn})
}

// NewHistogram registers (or returns the existing) fixed-bucket histogram.
// bounds must be ascending; they are copied.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookup(name, KindHistogram); ok && m.hist != nil {
		return m.hist
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.add(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// WriteProm writes the registry in the Prometheus text exposition format
// (text/plain; version=0.0.4): HELP/TYPE headers, counter/gauge samples,
// and cumulative histogram buckets with _sum and _count series.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	var b strings.Builder
	for _, m := range metrics {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case KindCounter:
			var v int64
			switch {
			case m.counter != nil:
				v = m.counter.Value()
			case m.cfn != nil:
				v = m.cfn()
			}
			fmt.Fprintf(&b, "%s %d\n", m.name, v)
		case KindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatProm(m.gfn()))
		case KindHistogram:
			h := m.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatProm(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatProm(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatProm renders a float the way Prometheus text format expects.
func formatProm(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
