package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"bfcbo/internal/optimizer"
	"bfcbo/internal/sched"
	"bfcbo/internal/tpch"
)

// TestReferenceIsSerial: the oracle is a pure function on the calling
// goroutine. It must not queue for admission or lease a worker slot —
// here the test itself holds the scheduler's only slot, so anything that
// waited for one would run into the deadline — and it must not start a
// goroutine at any DOP.
func TestReferenceIsSerial(t *testing.T) {
	ds := equivalenceDataset(t)
	q, _ := tpch.Get(12)
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRows, err := runRows(ds.DB, block, res.Plan, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}

	s := sched.New(sched.Config{Slots: 1})
	holder, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Finish()
	if !holder.Acquire(nil) {
		t.Fatal("could not take the only slot")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	// A sampler watches the goroutine count for the length of the call.
	stop, peak := make(chan struct{}), make(chan int)
	go func() {
		peakSeen := 0
		for {
			select {
			case <-stop:
				peak <- peakSeen
				return
			default:
				peakSeen = max(peakSeen, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}
	}()
	before := runtime.NumGoroutine()
	ropts := Options{Legacy: true, DOP: 4, Sched: s}
	got, err := RunContext(ctx, ds.DB, block, res.Plan, ropts)
	var gotRows *RowSet
	if err == nil {
		_, gotRows, err = runRowsContext(ctx, ds.DB, block, res.Plan, ropts)
	}
	close(stop)
	during := <-peak
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if during > before {
		t.Errorf("goroutines rose from %d to %d during the reference run", before, during)
	}
	if n := s.Totals().Admitted; n != 1 {
		t.Errorf("scheduler admitted %d queries, want only the holder", n)
	}
	if got.Sched != (sched.Stat{}) || len(got.Pipelines) != 0 {
		t.Errorf("reference run reports engine state: sched %+v, %d pipelines", got.Sched, len(got.Pipelines))
	}
	w, g := canonicalRows(wantRows), canonicalRows(gotRows)
	if got.Rows != want.Rows || len(g) != len(w) {
		t.Fatalf("reference rows = %d (%d tuples), engine rows = %d (%d tuples)", got.Rows, len(g), want.Rows, len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("tuple %d diverges: reference %q, engine %q", i, g[i], w[i])
		}
	}
}
