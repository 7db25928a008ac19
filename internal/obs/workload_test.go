package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// findShape searches the store's snapshot for one fingerprint.
func findShape(ws *WorkloadStore, fp uint64) (WorkloadEntry, bool) {
	for _, e := range ws.Snapshot() {
		if e.Fingerprint == fmt.Sprintf("%016x", fp) {
			return e, true
		}
	}
	return WorkloadEntry{}, false
}

func TestWorkloadStoreAggregates(t *testing.T) {
	ws := NewWorkloadStore(8)
	for i := 0; i < 4; i++ {
		ws.Observe(WorkloadObservation{
			Fingerprint: 0xabc, Label: "q12", Mode: "BF-CBO",
			Latency: 10 * time.Millisecond, Rows: 100,
			Ops: 2, OpsActualRows: 300, OpsEstRows: 200,
			SpillBytes: 1 << 10,
		})
	}
	ws.Observe(WorkloadObservation{
		Fingerprint: 0xabc, Label: "q12", Mode: "BF-CBO",
		Latency: 30 * time.Millisecond, Failed: true,
	})
	e, ok := findShape(ws, 0xabc)
	if !ok {
		t.Fatal("observed fingerprint missing")
	}
	if e.Fingerprint != "0000000000000abc" || e.Label != "q12" || e.Mode != "BF-CBO" {
		t.Fatalf("identity fields wrong: %+v", e)
	}
	if e.Count != 5 || e.Errors != 1 || e.Rows != 400 || e.SpillBytes != 4<<10 {
		t.Fatalf("counters wrong: %+v", e)
	}
	if want := (4.0*10 + 30) / 5; e.MeanMS != want {
		t.Fatalf("MeanMS = %v, want %v", e.MeanMS, want)
	}
	if e.P50MS <= 0 || e.P95MS < e.P50MS {
		t.Fatalf("disordered quantiles: p50=%v p95=%v", e.P50MS, e.P95MS)
	}
	if e.MeanOpRowsActual != 150 || e.MeanOpRowsEst != 100 || e.ActualOverEst != 1.5 {
		t.Fatalf("operator-cardinality aggregates wrong: %+v", e)
	}

	// Fingerprint 0 is the "none" sentinel and must be dropped.
	ws.Observe(WorkloadObservation{Fingerprint: 0, Latency: time.Millisecond})
	if n := len(ws.Snapshot()); n != 1 {
		t.Fatalf("%d shapes after a fingerprint-0 observation, want 1", n)
	}

	// Nil-safety: a disabled store ignores everything.
	var nilWS *WorkloadStore
	nilWS.Observe(WorkloadObservation{Fingerprint: 1})
	if nilWS.Snapshot() != nil {
		t.Fatal("nil store not inert")
	}
}

func TestWorkloadStoreEviction(t *testing.T) {
	ws := NewWorkloadStore(2)
	ws.Observe(WorkloadObservation{Fingerprint: 1, Latency: time.Millisecond})
	ws.Observe(WorkloadObservation{Fingerprint: 2, Latency: time.Millisecond})
	// Touch 1 so 2 becomes the least-recently-observed shape.
	ws.Observe(WorkloadObservation{Fingerprint: 1, Latency: time.Millisecond})
	ws.Observe(WorkloadObservation{Fingerprint: 3, Latency: time.Millisecond})
	if n := len(ws.Snapshot()); n != 2 {
		t.Fatalf("%d shapes after eviction, want 2", n)
	}
	if _, ok := findShape(ws, 2); ok {
		t.Fatal("least-recently-observed shape survived eviction")
	}
	for _, fp := range []uint64{1, 3} {
		if _, ok := findShape(ws, fp); !ok {
			t.Fatalf("fingerprint %d wrongly evicted", fp)
		}
	}
}

func TestWorkloadSnapshotOrderAndJSON(t *testing.T) {
	ws := NewWorkloadStore(0)
	for i := 0; i < 3; i++ {
		ws.Observe(WorkloadObservation{Fingerprint: 5, Latency: time.Millisecond})
	}
	ws.Observe(WorkloadObservation{Fingerprint: 9, Latency: time.Millisecond})
	snap := ws.Snapshot()
	if len(snap) != 2 || snap[0].Count != 3 || snap[1].Count != 1 {
		t.Fatalf("snapshot not count-descending: %+v", snap)
	}
	var buf bytes.Buffer
	if err := ws.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Shapes  int             `json:"shapes"`
		Entries []WorkloadEntry `json:"workload"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if parsed.Shapes != 2 || len(parsed.Entries) != 2 {
		t.Fatalf("JSON shapes=%d entries=%d, want 2/2", parsed.Shapes, len(parsed.Entries))
	}
	buf.Reset()
	if err := NewWorkloadStore(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload": []`) {
		t.Fatalf("empty store should serialize an empty array:\n%s", buf.String())
	}
}

// BenchmarkWorkloadObserve gates the per-query fold for an already-seen
// fingerprint: one mutex, one uint64 map probe, field adds and an
// allocation-free histogram observe — 0 allocs/op (checked in CI).
func BenchmarkWorkloadObserve(b *testing.B) {
	ws := NewWorkloadStore(0)
	o := WorkloadObservation{
		Fingerprint: 0xfeed, Label: "q12", Mode: "BF-CBO",
		Latency: 5 * time.Millisecond, Rows: 100,
		Ops: 3, OpsActualRows: 120, OpsEstRows: 100,
	}
	ws.Observe(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Observe(o)
	}
}
