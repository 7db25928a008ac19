package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Workload history: a bounded per-fingerprint aggregate over every query
// the engine has executed, keyed by the normalized shape identity
// (plan.Fingerprint, as plan.FingerprintHex renders it). Where the flight
// recorder retains a few whole queries, the workload store retains a
// little about *every* shape — exec counts, a latency histogram
// (p50/p95), observed-vs-estimated operator cardinalities, spill bytes —
// which is exactly the signal the ROADMAP's plan cache and
// feedback-driven re-optimization consume.
//
// Observe for an already-seen fingerprint is the hot path: one mutex, one
// map probe on the record's hex fingerprint, a handful of field adds and
// an allocation-free histogram observe — 0 allocs/op (gated in CI). New
// fingerprints allocate their record once; when the store is full the
// least-recently-observed shape is evicted.

type workloadRec struct {
	label     string
	mode      string
	count     int64
	errs      int64
	lat       *Histogram
	sumLatNs  int64
	rows      int64
	ops       int64
	opsActual float64
	opsEst    float64
	spill     int64
	lastSeq   int64
}

// WorkloadStore is the bounded fingerprint → aggregate map behind
// /debug/workload. All methods are nil-safe.
type WorkloadStore struct {
	mu  sync.Mutex
	cap int
	seq atomic.Int64
	m   map[string]*workloadRec
}

// DefaultWorkloadShapes bounds the store when the caller passes 0.
const DefaultWorkloadShapes = 256

// NewWorkloadStore returns a store retaining at most capacity distinct
// fingerprints (0 = DefaultWorkloadShapes).
func NewWorkloadStore(capacity int) *WorkloadStore {
	if capacity <= 0 {
		capacity = DefaultWorkloadShapes
	}
	return &WorkloadStore{cap: capacity, m: make(map[string]*workloadRec, capacity)}
}

// Observe folds one run's record into its fingerprint's aggregate; a
// record with Err set counts as an error. Records without a fingerprint
// are dropped.
func (ws *WorkloadStore) Observe(o *QueryRecord) {
	if ws == nil || o.Fingerprint == "" {
		return
	}
	ws.mu.Lock()
	r := ws.m[o.Fingerprint]
	if r == nil {
		if len(ws.m) >= ws.cap {
			ws.evictLocked()
		}
		r = &workloadRec{
			label: o.Label, mode: o.Mode,
			lat: &Histogram{
				bounds: LatencyBuckets,
				counts: make([]atomic.Int64, len(LatencyBuckets)+1),
			},
		}
		ws.m[o.Fingerprint] = r
	}
	r.count++
	if o.Err != "" {
		r.errs++
	}
	r.sumLatNs += int64(o.Latency)
	r.lat.Observe(o.Latency.Seconds())
	r.rows += int64(o.Rows)
	r.ops += o.Ops
	r.opsActual += o.OpsActualRows
	r.opsEst += o.OpsEstRows
	r.spill += o.SpillBytes
	r.lastSeq = ws.seq.Add(1)
	ws.mu.Unlock()
}

// evictLocked drops the least-recently-observed fingerprint.
func (ws *WorkloadStore) evictLocked() {
	var victim string
	min := int64(1<<63 - 1)
	for fp, r := range ws.m {
		if r.lastSeq < min {
			min, victim = r.lastSeq, fp
		}
	}
	delete(ws.m, victim)
}

// WorkloadEntry is one fingerprint's aggregate as serialized by
// /debug/workload, ordered by exec count.
type WorkloadEntry struct {
	Fingerprint string  `json:"fingerprint"` // 16 hex digits
	Label       string  `json:"label"`
	Mode        string  `json:"mode,omitempty"`
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors,omitempty"`
	MeanMS      float64 `json:"mean_ms"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	Rows        int64   `json:"rows"`
	// MeanOpRowsActual / MeanOpRowsEst compare observed operator output
	// cardinality against the planner's estimate, averaged per operator
	// observation; ActualOverEst is their ratio (1 = perfect estimates).
	MeanOpRowsActual float64 `json:"mean_op_rows_actual"`
	MeanOpRowsEst    float64 `json:"mean_op_rows_est"`
	ActualOverEst    float64 `json:"actual_over_est"`
	SpillBytes       int64   `json:"spill_bytes,omitempty"`
}

func (r *workloadRec) entry(fp string) WorkloadEntry {
	e := WorkloadEntry{
		Fingerprint: fp,
		Label:       r.label,
		Mode:        r.mode,
		Count:       r.count,
		Errors:      r.errs,
		Rows:        r.rows,
		SpillBytes:  r.spill,
	}
	if r.count > 0 {
		e.MeanMS = float64(r.sumLatNs) / float64(r.count) / 1e6
	}
	e.P50MS = r.lat.quantile(0.5) * 1e3
	e.P95MS = r.lat.quantile(0.95) * 1e3
	if r.ops > 0 {
		e.MeanOpRowsActual = r.opsActual / float64(r.ops)
		e.MeanOpRowsEst = r.opsEst / float64(r.ops)
	}
	if r.opsEst > 0 {
		e.ActualOverEst = r.opsActual / r.opsEst
	}
	return e
}

// Snapshot returns every retained aggregate, most-executed first (ties
// by fingerprint for determinism).
func (ws *WorkloadStore) Snapshot() []WorkloadEntry {
	if ws == nil {
		return nil
	}
	ws.mu.Lock()
	out := make([]WorkloadEntry, 0, len(ws.m))
	for fp, r := range ws.m {
		out = append(out, r.entry(fp))
	}
	ws.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// WriteJSON serializes the store as /debug/workload does.
func (ws *WorkloadStore) WriteJSON(w io.Writer) error {
	entries := ws.Snapshot()
	if entries == nil {
		entries = []WorkloadEntry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Shapes  int             `json:"shapes"`
		Entries []WorkloadEntry `json:"workload"`
	}{len(entries), entries})
}
