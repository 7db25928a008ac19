package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// QueryRecord is one finished (or failed) run: a flight-recorder entry,
// with everything needed to debug a slow query after the fact without
// re-running it, and the workload store's input for the run's shape.
type QueryRecord struct {
	ID    int64  `json:"id"`
	Label string `json:"label"`
	Mode  string `json:"mode,omitempty"`
	// CostProfile names the cost profile the plan was costed under; the
	// estimated costs in Explain compare only within one profile.
	CostProfile string `json:"cost_profile,omitempty"`
	// Fingerprint is the query's normalized shape identity (16 hex
	// digits), the key joining recorder entries to the workload history.
	Fingerprint string        `json:"fingerprint,omitempty"`
	Start       time.Time     `json:"start"`
	Latency     time.Duration `json:"latency"`
	Rows        int           `json:"rows"`
	Err         string        `json:"err,omitempty"`

	// Explain renders the run's EXPLAIN ANALYZE when read; nil for a
	// failed run. JSON carries its text when it is an
	// encoding.TextMarshaler.
	Explain fmt.Stringer `json:"explain,omitempty"`

	// Scheduling/memory/spill picture, flattened from the per-query stats.
	QueueWait  time.Duration `json:"queue_wait"`
	SlotWait   time.Duration `json:"slot_wait"`
	SlotBusy   time.Duration `json:"slot_busy"`
	MemPeak    int64         `json:"mem_peak,omitempty"`
	SpillBytes int64         `json:"spill_bytes,omitempty"`
	SpillRead  int64         `json:"spill_read_bytes,omitempty"`
	SpillParts int64         `json:"spill_parts,omitempty"`
	SpillDepth int64         `json:"spill_depth,omitempty"`

	// Trace is the query's lifecycle trace, when tracing was on.
	Trace *Trace `json:"-"`

	// Ops counts the plan operators measured; OpsActualRows and OpsEstRows
	// are their actual and planner-estimated output rows summed, which the
	// workload history averages per operator.
	Ops           int64   `json:"-"`
	OpsActualRows float64 `json:"-"`
	OpsEstRows    float64 `json:"-"`
}

// FlightRecorder keeps the last N finished queries — a fixed-size ring
// with FIFO eviction (oldest entry leaves first), which keeps admission
// O(1) and eviction deterministic.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []QueryRecord
	head int // next write position
	n    int // live entries
}

// NewFlightRecorder returns a recorder retaining up to capacity records.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 8
	}
	return &FlightRecorder{ring: make([]QueryRecord, capacity)}
}

// Record admits one finished query.
func (fr *FlightRecorder) Record(rec QueryRecord) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.ring[fr.head] = rec
	fr.head = (fr.head + 1) % len(fr.ring)
	if fr.n < len(fr.ring) {
		fr.n++
	}
	fr.mu.Unlock()
}

// Recent returns the live records oldest-first (admission order).
func (fr *FlightRecorder) Recent() []QueryRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]QueryRecord, 0, fr.n)
	start := fr.head - fr.n
	for i := 0; i < fr.n; i++ {
		out = append(out, fr.ring[((start+i)%len(fr.ring)+len(fr.ring))%len(fr.ring)])
	}
	return out
}

// Worst returns the live records sorted by latency, slowest first.
func (fr *FlightRecorder) Worst() []QueryRecord {
	out := fr.Recent()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency > out[j].Latency })
	return out
}

// Find returns the record with the given query ID, if still retained.
func (fr *FlightRecorder) Find(id int64) (QueryRecord, bool) {
	for _, rec := range fr.Recent() {
		if rec.ID == id {
			return rec, true
		}
	}
	return QueryRecord{}, false
}

// WriteJSON dumps the retained records (slowest first) as indented JSON —
// the payload behind /debug/queries.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Queries []QueryRecord `json:"queries"`
	}{Queries: fr.Worst()})
}
