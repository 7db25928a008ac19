package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// findShape searches the store's snapshot for one fingerprint.
func findShape(ws *WorkloadStore, fp string) (WorkloadEntry, bool) {
	for _, e := range ws.Snapshot() {
		if e.Fingerprint == fp {
			return e, true
		}
	}
	return WorkloadEntry{}, false
}

func TestWorkloadStoreAggregates(t *testing.T) {
	ws := NewWorkloadStore(8)
	for i := 0; i < 4; i++ {
		ws.Observe(&QueryRecord{
			Fingerprint: "0000000000000abc", Label: "q12", Mode: "BF-CBO",
			Latency: 10 * time.Millisecond, Rows: 100,
			Ops: 2, OpsActualRows: 300, OpsEstRows: 200,
			SpillBytes: 1 << 10,
		})
	}
	ws.Observe(&QueryRecord{
		Fingerprint: "0000000000000abc", Label: "q12", Mode: "BF-CBO",
		Latency: 30 * time.Millisecond, Err: "injected",
	})
	e, ok := findShape(ws, "0000000000000abc")
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

	// A record without a fingerprint must be dropped.
	ws.Observe(&QueryRecord{Latency: time.Millisecond})
	if n := len(ws.Snapshot()); n != 1 {
		t.Fatalf("%d shapes after an unfingerprinted observation, want 1", n)
	}

	// Nil-safety: a disabled store ignores everything.
	var nilWS *WorkloadStore
	nilWS.Observe(&QueryRecord{Fingerprint: "0000000000000001"})
	if nilWS.Snapshot() != nil {
		t.Fatal("nil store not inert")
	}
}

func TestWorkloadStoreEviction(t *testing.T) {
	ws := NewWorkloadStore(2)
	ws.Observe(&QueryRecord{Fingerprint: "0000000000000001", Latency: time.Millisecond})
	ws.Observe(&QueryRecord{Fingerprint: "0000000000000002", Latency: time.Millisecond})
	// Touch 1 so 2 becomes the least-recently-observed shape.
	ws.Observe(&QueryRecord{Fingerprint: "0000000000000001", Latency: time.Millisecond})
	ws.Observe(&QueryRecord{Fingerprint: "0000000000000003", Latency: time.Millisecond})
	if n := len(ws.Snapshot()); n != 2 {
		t.Fatalf("%d shapes after eviction, want 2", n)
	}
	if _, ok := findShape(ws, "0000000000000002"); ok {
		t.Fatal("least-recently-observed shape survived eviction")
	}
	for _, fp := range []string{"0000000000000001", "0000000000000003"} {
		if _, ok := findShape(ws, fp); !ok {
			t.Fatalf("fingerprint %s wrongly evicted", fp)
		}
	}
}

func TestWorkloadSnapshotOrderAndJSON(t *testing.T) {
	ws := NewWorkloadStore(0)
	for i := 0; i < 3; i++ {
		ws.Observe(&QueryRecord{Fingerprint: "0000000000000005", Latency: time.Millisecond})
	}
	ws.Observe(&QueryRecord{Fingerprint: "0000000000000009", Latency: time.Millisecond})
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
// fingerprint: one mutex, one map probe on the hex fingerprint, field adds
// and an allocation-free histogram observe — 0 allocs/op (checked in CI).
func BenchmarkWorkloadObserve(b *testing.B) {
	ws := NewWorkloadStore(0)
	o := &QueryRecord{
		Fingerprint: "000000000000feed", Label: "q12", Mode: "BF-CBO",
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
