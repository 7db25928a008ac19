package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workload history: a bounded per-fingerprint aggregate over every query
// the engine has executed, keyed by the normalized shape identity
// (plan.Fingerprint). Where the flight recorder retains a few whole
// queries, the workload store retains a little about *every* shape —
// exec counts, a latency histogram (p50/p95), observed-vs-estimated
// operator cardinalities, spill bytes — which is exactly the signal the
// ROADMAP's plan cache and feedback-driven re-optimization consume.
//
// Observe for an already-seen fingerprint is the hot path: one mutex,
// one map probe on a uint64 key, a handful of field adds and an
// allocation-free histogram observe — 0 allocs/op (gated in CI). New
// fingerprints allocate their record once; when the store is full the
// least-recently-observed shape is evicted.

// WorkloadObservation is one finished run's contribution, passed by
// value so the call itself never allocates.
type WorkloadObservation struct {
	Fingerprint uint64
	Label       string
	Mode        string
	Latency     time.Duration
	Rows        int64
	// Ops counts the plan operators measured this run; OpsActualRows and
	// OpsEstRows are actual and planner-estimated output rows summed
	// across them ("mean rows per operator vs estimate" divides by Ops).
	Ops           int64
	OpsActualRows float64
	OpsEstRows    float64
	SpillBytes    int64
	Failed        bool
}

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
	m   map[uint64]*workloadRec
}

// DefaultWorkloadShapes bounds the store when the caller passes 0.
const DefaultWorkloadShapes = 256

// NewWorkloadStore returns a store retaining at most capacity distinct
// fingerprints (0 = DefaultWorkloadShapes).
func NewWorkloadStore(capacity int) *WorkloadStore {
	if capacity <= 0 {
		capacity = DefaultWorkloadShapes
	}
	return &WorkloadStore{cap: capacity, m: make(map[uint64]*workloadRec, capacity)}
}

// Observe folds one finished run into its fingerprint's aggregate.
// Observations without a fingerprint are dropped.
func (ws *WorkloadStore) Observe(o WorkloadObservation) {
	if ws == nil || o.Fingerprint == 0 {
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
	if o.Failed {
		r.errs++
	}
	r.sumLatNs += int64(o.Latency)
	r.lat.Observe(o.Latency.Seconds())
	r.rows += o.Rows
	r.ops += o.Ops
	r.opsActual += o.OpsActualRows
	r.opsEst += o.OpsEstRows
	r.spill += o.SpillBytes
	r.lastSeq = ws.seq.Add(1)
	ws.mu.Unlock()
}

// evictLocked drops the least-recently-observed fingerprint.
func (ws *WorkloadStore) evictLocked() {
	var victim uint64
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

func (r *workloadRec) entry(fp uint64) WorkloadEntry {
	e := WorkloadEntry{
		Fingerprint: hex16(fp),
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

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}
