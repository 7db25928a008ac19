package exec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bfcbo/internal/mem"
	"bfcbo/internal/obs"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/tpch"
)

// The concurrent-query stress suite: many goroutines run mixed TPC-H
// queries through one shared scheduler + broker (one "engine"), and the
// results must be bit-identical to serial runs, the slot pool must never
// exceed its capacity and must drain to zero, no goroutines may leak, and
// cancellation must work while queued and mid-run (deadline expiry).

// workerGauge wraps a worker's operator chain to measure how many workers
// are inside NextBatch at once. A worker inside NextBatch always holds a
// worker slot — it acquires one before it builds its chain, and releases it
// after it closes the chain and, when it ended its stage last, ran the
// stage's finish; a spilled join's route and drain stages each run workers
// of their own — so the observed maximum bounds the scheduler's
// concurrently running workers, the population the slot pool governs. The
// gauge does not see a finish itself: TestFinishHoldsASlot checks from
// outside that no finish runs beside another pipeline's batch.
type workerGauge struct {
	child    PhysicalOperator
	cur, max *atomic.Int64
}

func (o *workerGauge) Open() error  { return o.child.Open() }
func (o *workerGauge) Close() error { return o.child.Close() }
func (o *workerGauge) NextBatch() (*RowSet, error) {
	n := o.cur.Add(1)
	for {
		m := o.max.Load()
		if n <= m || o.max.CompareAndSwap(m, n) {
			break
		}
	}
	defer o.cur.Add(-1)
	return o.child.NextBatch()
}

// batchClock wraps a worker's operator chain to record when each of its
// NextBatch calls ran, tagged with the worker's pipeline.
type batchClock struct {
	child PhysicalOperator
	pipe  int
	mu    *sync.Mutex
	spans *[]batchSpan
}

type batchSpan struct {
	pipe       int
	start, end time.Time
}

func (o *batchClock) Open() error  { return o.child.Open() }
func (o *batchClock) Close() error { return o.child.Close() }
func (o *batchClock) NextBatch() (*RowSet, error) {
	start := time.Now()
	b, err := o.child.NextBatch()
	end := time.Now()
	o.mu.Lock()
	*o.spans = append(*o.spans, batchSpan{pipe: o.pipe, start: start, end: end})
	o.mu.Unlock()
	return b, err
}

// TestFinishHoldsASlot asserts from outside that a breaker finish runs
// inside a worker slot, so that DOP caps finishes too. At DOP 1 the private
// scheduler has one slot, so a finish that holds it leaves no room for any
// batch of another pipeline: no "breaker" trace span may overlap one. The blocks
// are those with independent hash builds, whose pipelines could run side by
// side: Q2, Q5, Q7, Q8, Q9 and Q21.
func TestFinishHoldsASlot(t *testing.T) {
	ds := equivalenceDataset(t)
	for _, num := range []int{2, 5, 7, 8, 9, 21} {
		block, res := chaosPlan(t, num)
		var mu sync.Mutex
		var batches []batchSpan
		tr := obs.NewTrace(0)
		opts := Options{DOP: 1, Trace: tr}
		opts.injectOp = func(pl *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
			return &batchClock{child: op, pipe: pl.ID, mu: &mu, spans: &batches}
		}
		if _, err := Run(ds.DB, block, res.Plan, opts); err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		finishes := 0
		for _, sp := range tr.Spans() {
			if sp.Cat != "breaker" {
				continue
			}
			finishes++
			end := sp.Start.Add(sp.Dur)
			for _, b := range batches {
				if b.pipe != sp.TID-1 && b.start.Before(end) && sp.Start.Before(b.end) {
					t.Errorf("Q%d: P%d's finish (%v from %v) overlaps a batch of P%d (%v to %v)",
						num, sp.TID-1, sp.Dur, sp.Start, b.pipe, b.start, b.end)
				}
			}
		}
		if finishes == 0 {
			t.Fatalf("Q%d: the trace holds no breaker span", num)
		}
	}
}

// concurrentMix is the TPC-H query mix of the stress tests: Bloom-heavy
// joins with hash builds, and Q21's wide join with its semi and anti
// joins.
func concurrentMix() []int { return []int{3, 5, 8, 12, 21} }

// TestConcurrentQueriesMatchSerial runs N streams of mixed TPC-H queries
// on one scheduler at MaxConcurrent 4 and asserts: bit-identical results
// to serial runs, running workers never exceeding the global DOP, and
// slot-pool/broker accounting returning to zero.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	ds := equivalenceDataset(t)
	const dop = 8
	type planned struct {
		num   int
		block *query.Block
		plan  *plan.Plan
		want  []string
	}
	var qs []planned
	for _, num := range concurrentMix() {
		q, ok := tpch.Get(num)
		if !ok {
			t.Fatalf("unknown TPC-H query %d", num)
		}
		block := q.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		_, serial, err := runRows(ds.DB, block, res.Plan, Options{DOP: dop})
		if err != nil {
			t.Fatalf("Q%d: serial run: %v", num, err)
		}
		qs = append(qs, planned{
			num: num, block: block, plan: res.Plan,
			want: canonicalRows(serial),
		})
	}

	scheduler := sched.New(sched.Config{Slots: dop, MaxConcurrent: 4})
	broker := mem.NewBroker(0)
	var cur, maxGauge atomic.Int64
	const streams = 8
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errCh := make(chan error, streams*len(qs))
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < len(qs); k++ {
				pq := qs[(s+k)%len(qs)]
				opts := Options{DOP: dop, Sched: scheduler, Broker: broker}
				opts.injectOp = func(pl *plan.Pipeline, worker int, _ bool, op PhysicalOperator) PhysicalOperator {
					return &workerGauge{child: op, cur: &cur, max: &maxGauge}
				}
				_, rows, err := runRows(ds.DB, pq.block, pq.plan, opts)
				if err != nil {
					errCh <- err
					return
				}
				got := canonicalRows(rows)
				if len(got) != len(pq.want) {
					t.Errorf("stream %d Q%d: %d tuples, want %d", s, pq.num, len(got), len(pq.want))
					return
				}
				for i := range pq.want {
					if got[i] != pq.want[i] {
						t.Errorf("stream %d Q%d: tuple %d diverges from serial run", s, pq.num, i)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent run failed: %v", err)
	}
	if m := maxGauge.Load(); m > dop {
		t.Fatalf("observed %d concurrently running workers, global DOP is %d", m, dop)
	}
	if scheduler.InUse() != 0 || scheduler.Admitted() != 0 || scheduler.SlotWaiters() != 0 {
		t.Fatalf("scheduler dirty after runs: inUse=%d admitted=%d waiters=%d",
			scheduler.InUse(), scheduler.Admitted(), scheduler.SlotWaiters())
	}
	if broker.Used() != 0 {
		t.Fatalf("broker holds %d bytes after runs", broker.Used())
	}
	waitGoroutines(t, before)
}

// TestSlotCapHoldsUnderBudget runs the gauge over concurrent budgeted
// runs: under a one-byte budget every hash build spills, so every probe
// pipeline runs a route stage and a drain stage, and the running workers
// still never exceed the pool's slots. Each run must return the
// reference's tuples.
func TestSlotCapHoldsUnderBudget(t *testing.T) {
	ds := equivalenceDataset(t)
	const slots, streams = 2, 4
	type planned struct {
		num   int
		block *query.Block
		plan  *plan.Plan
		want  []string
	}
	var qs []planned
	for _, num := range concurrentMix() {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", num, err)
		}
		_, ref, err := runRows(ds.DB, block, res.Plan, Options{Legacy: true})
		if err != nil {
			t.Fatalf("Q%d: reference: %v", num, err)
		}
		qs = append(qs, planned{num: num, block: block, plan: res.Plan, want: canonicalRows(ref)})
	}
	scheduler := sched.New(sched.Config{Slots: slots})
	broker := mem.NewBroker(tinyBudget)
	spillRoot := t.TempDir()
	var cur, maxGauge atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := range qs {
				pq := qs[(s+k)%len(qs)]
				opts := Options{DOP: slots, Sched: scheduler, Broker: broker, SpillDir: spillRoot}
				opts.injectOp = func(_ *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
					return &workerGauge{child: op, cur: &cur, max: &maxGauge}
				}
				r, rows, err := runRows(ds.DB, pq.block, pq.plan, opts)
				if err != nil {
					t.Errorf("stream %d Q%d: %v", s, pq.num, err)
					return
				}
				if !r.TotalSpill().Spilled() {
					t.Errorf("stream %d Q%d: the one-byte budget spilled nothing", s, pq.num)
				}
				if got := canonicalRows(rows); !slices.Equal(got, pq.want) {
					t.Errorf("stream %d Q%d: %d tuples differ from the reference's %d", s, pq.num, len(got), len(pq.want))
				}
			}
		}(s)
	}
	wg.Wait()
	if m := maxGauge.Load(); m > slots {
		t.Fatalf("observed %d concurrently running workers, the pool has %d slots", m, slots)
	}
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCancelWhileQueued parks a slow query in the single
// admission slot and cancels a second query while it waits in the queue:
// the context error must surface, the queue must drain, and nothing may
// leak.
func TestConcurrentCancelWhileQueued(t *testing.T) {
	db, b, p := bigScanFixture(t, 50_000)
	scheduler := sched.New(sched.Config{Slots: 4, MaxConcurrent: 1})
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		opts := Options{DOP: 2, morselSize: 4, Sched: scheduler}
		opts.injectOp = func(pl *plan.Pipeline, worker int, _ bool, op PhysicalOperator) PhysicalOperator {
			return &stallOp{child: op, gate: release}
		}
		_, err := RunContext(context.Background(), db, b, p, opts)
		holderDone <- err
	}()
	for scheduler.Admitted() < 1 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, db, b, p, Options{DOP: 2, Sched: scheduler})
		queuedDone <- err
	}()
	for scheduler.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued query error = %v, want context.Canceled", err)
	}
	if scheduler.Queued() != 0 {
		t.Fatalf("admission queue did not drain: %d", scheduler.Queued())
	}
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
	if scheduler.InUse() != 0 || scheduler.Admitted() != 0 {
		t.Fatalf("scheduler dirty: inUse=%d admitted=%d", scheduler.InUse(), scheduler.Admitted())
	}
	waitGoroutines(t, before)
}

// stallOp blocks every batch until its gate opens (keeping the query
// admitted and its workers running), then streams normally.
type stallOp struct {
	child PhysicalOperator
	gate  <-chan struct{}
}

func (o *stallOp) Open() error  { return o.child.Open() }
func (o *stallOp) Close() error { return o.child.Close() }
func (o *stallOp) NextBatch() (*RowSet, error) {
	<-o.gate
	return o.child.NextBatch()
}

// TestConcurrentDeadlineExpiry gives a slow query a short deadline: the
// run must stop at the next morsel, surface DeadlineExceeded, return its
// slots, and leak nothing.
func TestConcurrentDeadlineExpiry(t *testing.T) {
	db, b, p := bigScanFixture(t, 100_000)
	scheduler := sched.New(sched.Config{Slots: 4})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	opts := Options{DOP: 4, morselSize: 1, Sched: scheduler}
	opts.injectOp = func(pl *plan.Pipeline, worker int, _ bool, op PhysicalOperator) PhysicalOperator {
		return &faultOp{child: op, batchDelay: 200 * time.Microsecond,
			opens: new(atomic.Int64), closes: new(atomic.Int64), batches: new(atomic.Int64)}
	}
	start := time.Now()
	_, err := RunContext(ctx, db, b, p, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-canceled run took %s to wind down", elapsed)
	}
	if scheduler.InUse() != 0 || scheduler.Admitted() != 0 {
		t.Fatalf("scheduler dirty: inUse=%d admitted=%d", scheduler.InUse(), scheduler.Admitted())
	}
	waitGoroutines(t, before)
}

// TestConcurrentQueueDeadline: with the admission slot held, a queued
// query must fail with context.DeadlineExceeded once its context deadline
// expires, and leave no admission or queue entry behind.
func TestConcurrentQueueDeadline(t *testing.T) {
	db, b, p := bigScanFixture(t, 50_000)
	scheduler := sched.New(sched.Config{Slots: 2, MaxConcurrent: 1})
	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		opts := Options{DOP: 1, morselSize: 4, Sched: scheduler}
		opts.injectOp = func(pl *plan.Pipeline, worker int, _ bool, op PhysicalOperator) PhysicalOperator {
			return &stallOp{child: op, gate: release}
		}
		_, err := RunContext(context.Background(), db, b, p, opts)
		holderDone <- err
	}()
	for scheduler.Admitted() < 1 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, db, b, p, Options{DOP: 1, Sched: scheduler})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if scheduler.Admitted() != 1 || scheduler.Queued() != 0 {
		t.Fatalf("expired waiter left state behind: admitted=%d queued=%d", scheduler.Admitted(), scheduler.Queued())
	}
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
	if scheduler.Admitted() != 0 || scheduler.InUse() != 0 {
		t.Fatalf("scheduler dirty: admitted=%d inUse=%d", scheduler.Admitted(), scheduler.InUse())
	}
}

// TestConcurrentSpillingQueriesShareBudget: concurrent queries under one
// tiny shared budget are all admitted at once and all spill — each
// produces exact results in its own spill subdirectory, and the shared
// state audits clean afterwards.
func TestConcurrentSpillingQueriesShareBudget(t *testing.T) {
	db, b, p := factDimFixture(t)
	want, err := Run(db, b, p, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	broker := mem.NewBroker(tinyBudget)
	scheduler := sched.New(sched.Config{Slots: 4})
	spillRoot := t.TempDir()
	const streams = 4
	var wg sync.WaitGroup
	errs := make([]error, streams)
	rows := make([]int, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunContext(context.Background(), db, b, p, Options{
				DOP: 4, Sched: scheduler, Broker: broker, SpillDir: spillRoot,
			})
			if err != nil {
				errs[i] = err
				return
			}
			rows[i] = r.Rows
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if rows[i] != want.Rows {
			t.Fatalf("stream %d: rows = %d, want %d", i, rows[i], want.Rows)
		}
	}
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, spillRoot)
}

// TestMemoryNeverBlocksAdmission pins the admission contract: memory
// never holds a query back, a denied grant spills. With another query
// admitted and the whole shared budget already reserved, a spilling
// query on the same scheduler and broker is admitted at once and
// returns exact rows through the spill path well inside its deadline.
func TestMemoryNeverBlocksAdmission(t *testing.T) {
	db, b, p := factDimFixture(t)
	_, want, err := runRows(db, b, p, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	broker := mem.NewBroker(tinyBudget)
	scheduler := sched.New(sched.Config{Slots: 2})
	holder, err := scheduler.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acct := broker.NewQuery()
	acct.Reserve().Force(tinyBudget)

	spillRoot := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r, rows, err := runRowsContext(ctx, db, b, p, Options{DOP: 2, Sched: scheduler, Broker: broker, SpillDir: spillRoot})
	if err != nil {
		t.Fatalf("spilling query beside a full budget: %v", err)
	}
	sameTuples(t, "beside a full budget", canonicalRows(rows), canonicalRows(want))
	if !r.TotalSpill().Spilled() {
		t.Fatal("the query ran without spilling under an exhausted budget")
	}

	acct.Close()
	holder.Finish()
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
		t.Fatal(err)
	}
}
