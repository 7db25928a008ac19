package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// counter is a test pipeline's progress counters, as a read function
// hands them to AddPipeline.
type counter struct{ PipeCounts }

func (c *counter) read() PipeCounts { return c.PipeCounts }

func TestPipeProgressFraction(t *testing.T) {
	var lq LiveQuery
	var c counter
	p := lq.AddPipeline(0, "scan", 4, c.read)
	if got := p.fraction(c.Morsels); got != 0 {
		t.Fatalf("fresh pipeline fraction = %v, want 0", got)
	}
	p.Running()
	c.Morsels = 2
	if got := p.fraction(c.Morsels); got != 0.5 {
		t.Fatalf("fraction after 2/4 morsels = %v, want 0.5", got)
	}
	// The fraction stays below 1 until the sink finishes, even at the
	// planned total.
	c.Morsels = 4
	if got := p.fraction(c.Morsels); got != 0.99 {
		t.Fatalf("fraction at planned total = %v, want 0.99 cap", got)
	}
	p.Done()
	if got := p.fraction(c.Morsels); got != 1 {
		t.Fatalf("fraction after Done = %v, want 1", got)
	}
}

func TestLiveSnapshotPhasesAndWeighting(t *testing.T) {
	lq := NewLiveQuery(7, "q12", "00000000deadbeef", "BF-CBO")
	now := time.Now()
	if got := lq.snapshot(now).Phase; got != "planning" {
		t.Fatalf("no-pipeline phase = %q, want planning", got)
	}
	var bigC, smallC counter
	big := lq.AddPipeline(0, "scan lineitem", 9, bigC.read)
	small := lq.AddPipeline(1, "scan orders", 1, smallC.read)
	if got := lq.snapshot(now).Phase; got != "queued" {
		t.Fatalf("all-pending phase = %q, want queued", got)
	}
	big.Running()
	s := lq.snapshot(now)
	if s.Phase != "scan lineitem" {
		t.Fatalf("running phase = %q, want the running pipeline's label", s.Phase)
	}
	// Weighted fraction: the 9-morsel pipeline at 3/9 dominates the
	// untouched 1-morsel one — (9*(1/3) + 1*0) / 10.
	bigC.PipeCounts = PipeCounts{Morsels: 3, RowsScanned: 3072, RowsEmitted: 17}
	s = lq.snapshot(now)
	want := (9.0 * (3.0 / 9.0)) / 10.0
	if diff := s.Fraction - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("weighted fraction = %v, want %v", s.Fraction, want)
	}
	// The snapshot shows the counters as read, unadjusted.
	if ps := s.Pipelines[0]; ps.MorselsDone != 3 || ps.RowsScanned != 3072 || ps.RowsEmitted != 17 {
		t.Fatalf("pipeline snapshot = %+v, want the read counters", ps)
	}
	big.Done()
	small.Running()
	small.Done()
	s = lq.snapshot(now)
	if s.Phase != "finishing" || s.Fraction != 1 {
		t.Fatalf("all-done snapshot = phase %q fraction %v, want finishing/1", s.Phase, s.Fraction)
	}
	// Scheduler and memory callbacks feed the snapshot.
	lq.SetSchedFn(func() LiveSched {
		return LiveSched{Held: 3, QueueWait: 2 * time.Millisecond}
	})
	lq.SetMemFn(func() int64 { return 1 << 20 })
	s = lq.snapshot(now)
	if s.SlotsHeld != 3 || s.QueueWaitMS != 2 || s.MemBytes != 1<<20 {
		t.Fatalf("callback-backed fields wrong: %+v", s)
	}
}

func TestInspectorRegisterKillDeregister(t *testing.T) {
	in := NewInspector()
	if len(in.Snapshot()) != 0 || in.Kill(1) {
		t.Fatal("empty inspector should hold nothing and kill nothing")
	}
	killed := 0
	lq := NewLiveQuery(42, "q5", "", "BF-CBO")
	lq.AddPipeline(0, "scan", 1, new(counter).read)
	lq.OnKill(func() { killed++ })
	in.Register(lq)
	if n := len(in.Snapshot()); n != 1 {
		t.Fatalf("%d live queries after register, want 1", n)
	}
	if in.Kill(41) {
		t.Fatal("Kill of an unknown id reported success")
	}
	if !in.Kill(42) || killed != 1 {
		t.Fatalf("Kill(42) did not invoke the hook (killed=%d)", killed)
	}
	in.Kill(42) // idempotent: the hook only trips a flag
	if killed != 2 {
		t.Fatalf("second Kill skipped the hook (killed=%d)", killed)
	}
	in.Deregister(42)
	if len(in.Snapshot()) != 0 || in.Kill(42) {
		t.Fatal("deregistered query still killable")
	}

	// Nil-safety across the board: an engine without an inspector.
	var nilIn *Inspector
	nilIn.Register(lq)
	nilIn.Deregister(42)
	if nilIn.Kill(42) || nilIn.Snapshot() != nil {
		t.Fatal("nil inspector not inert")
	}
}

func TestInspectorSnapshotOrderAndJSON(t *testing.T) {
	in := NewInspector()
	for _, id := range []int64{9, 3, 17} {
		lq := NewLiveQuery(id, "q", "", "")
		lq.AddPipeline(0, "scan", 2, new(counter).read)
		in.Register(lq)
	}
	snaps := in.Snapshot()
	if len(snaps) != 3 || snaps[0].ID != 3 || snaps[1].ID != 9 || snaps[2].ID != 17 {
		t.Fatalf("snapshot not ordered by id: %+v", snaps)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Queries []LiveSnapshot `json:"queries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if len(parsed.Queries) != 3 {
		t.Fatalf("JSON has %d queries, want 3", len(parsed.Queries))
	}

	// An empty inspector serializes an empty array, not null — scrapers
	// depend on the shape.
	buf.Reset()
	if err := NewInspector().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"queries": []`) {
		t.Fatalf("empty live view should be an empty array:\n%s", buf.String())
	}
}
