package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bfcbo/internal/faults"
)

// never is a stop channel that never fires.
var never = make(chan struct{})

func mustAdmit(t *testing.T, s *Scheduler) *Query {
	t.Helper()
	q, err := s.Admit(context.Background())
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	return q
}

// The pool must be work-conserving (free slots grant immediately, beyond
// fair share) and accounting must return to zero.
func TestConcurrentSlotPoolWorkConserving(t *testing.T) {
	s := New(Config{Slots: 4})
	q := mustAdmit(t, s)
	for i := 0; i < 4; i++ {
		if !q.Acquire(never) {
			t.Fatalf("acquire %d failed on an empty pool", i)
		}
	}
	if s.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", s.InUse())
	}
	for i := 0; i < 4; i++ {
		q.Release()
	}
	q.Finish()
	if s.InUse() != 0 || s.Admitted() != 0 {
		t.Fatalf("pool not drained: inUse=%d admitted=%d", s.InUse(), s.Admitted())
	}
}

// Under contention, MaybeYield must hand slots off until the hogging
// query is down to its fair share — the yielding worker blocks in
// re-acquisition (the time slice) until the other query releases — and
// the handoffs must be counted.
func TestConcurrentFairShareHandoff(t *testing.T) {
	s := New(Config{Slots: 4})
	a := mustAdmit(t, s)
	b := mustAdmit(t, s)
	for i := 0; i < 4; i++ {
		a.Acquire(never)
	}
	// b's two workers queue up.
	got := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- b.Acquire(never) }()
	}
	for s.SlotWaiters() < 2 {
		time.Sleep(time.Millisecond)
	}
	// Two of a's workers hit the morsel boundary: a is over its share
	// (4/2 = 2), so each hands its slot to b and blocks re-acquiring.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !a.MaybeYield(never) {
				t.Error("MaybeYield lost the slot without cancellation")
			}
		}()
	}
	for i := 0; i < 2; i++ {
		if ok := <-got; !ok {
			t.Fatal("b's acquire failed")
		}
	}
	// b finishes its batches and releases: a's blocked workers resume.
	b.Release()
	b.Release()
	wg.Wait()
	if st := a.Stats(); st.Handoffs != 2 {
		t.Fatalf("handoffs = %d, want 2", st.Handoffs)
	}
	// Balanced again: nobody waits, MaybeYield keeps the slot.
	if !a.MaybeYield(never) {
		t.Fatal("MaybeYield yielded with no waiters")
	}
	for i := 0; i < 4; i++ {
		a.Release()
	}
	a.Finish()
	b.Finish()
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after teardown", s.InUse())
	}
}

// MaxConcurrent must queue FIFO and admit on Finish.
func TestConcurrentAdmissionFIFO(t *testing.T) {
	s := New(Config{Slots: 2, MaxConcurrent: 1})
	first := mustAdmit(t, s)
	type res struct {
		q   *Query
		err error
		tag string
	}
	out := make(chan res, 2)
	admit := func(tag string) {
		q, err := s.Admit(context.Background())
		out <- res{q, err, tag}
	}
	go admit("second")
	for s.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	go admit("third")
	for s.Queued() < 2 {
		time.Sleep(time.Millisecond)
	}
	first.Finish()
	r := <-out
	if r.err != nil || r.tag != "second" {
		t.Fatalf("expected second admitted first, got %q err=%v", r.tag, r.err)
	}
	if r.q.Stats().QueueWait <= 0 {
		t.Fatal("queued admission reported zero queue wait")
	}
	r.q.Finish()
	r = <-out
	if r.err != nil || r.tag != "third" {
		t.Fatalf("expected third admitted last, got %q err=%v", r.tag, r.err)
	}
	r.q.Finish()
}

// A queued admission whose context deadline expires must surface
// context.DeadlineExceeded; context cancellation must surface
// context.Canceled; both must drain the queue.
func TestConcurrentQueueDeadlineAndCancel(t *testing.T) {
	s := New(Config{Slots: 1, MaxConcurrent: 1})
	first := mustAdmit(t, s)
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if _, err := s.Admit(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if s.Queued() != 0 {
		t.Fatalf("queue not drained after deadline: %d", s.Queued())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx)
		done <- err
	}()
	for s.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Queued() != 0 {
		t.Fatalf("queue not drained after cancel: %d", s.Queued())
	}
	first.Finish()
}

// Acquire must wake with false when the stop channel closes, and clean
// its waiter up.
func TestConcurrentAcquireCancel(t *testing.T) {
	s := New(Config{Slots: 1})
	a := mustAdmit(t, s)
	a.Acquire(never)
	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- a.Acquire(stop) }()
	for s.SlotWaiters() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if ok := <-done; ok {
		t.Fatal("canceled acquire reported a granted slot")
	}
	if s.SlotWaiters() != 0 {
		t.Fatalf("slot waiters = %d after cancel", s.SlotWaiters())
	}
	a.Release()
	a.Finish()
	if s.InUse() != 0 {
		t.Fatalf("InUse = %d after teardown", s.InUse())
	}
}

// Hammer the pool from many queries under -race: accounting must hold
// (never above capacity — checked by construction — and zero at the end).
func TestConcurrentPoolStress(t *testing.T) {
	s := New(Config{Slots: 3})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := mustAdmit(t, s)
			defer q.Finish()
			for k := 0; k < 200; k++ {
				if !q.Acquire(never) {
					t.Error("acquire failed")
					return
				}
				if !q.MaybeYield(never) {
					t.Error("yield lost slot")
					return
				}
				q.Release()
			}
		}()
	}
	wg.Wait()
	if s.InUse() != 0 || s.Admitted() != 0 || s.SlotWaiters() != 0 {
		t.Fatalf("pool dirty after stress: inUse=%d admitted=%d waiters=%d",
			s.InUse(), s.Admitted(), s.SlotWaiters())
	}
}

// Occupancy accounting: holding one slot for a while must show up in
// SlotBusy; waiting must show up in SlotWait.
func TestConcurrentStatsAccounting(t *testing.T) {
	s := New(Config{Slots: 1})
	a := mustAdmit(t, s)
	b := mustAdmit(t, s)
	a.Acquire(never)
	done := make(chan struct{})
	go func() {
		b.Acquire(never)
		close(done)
	}()
	for s.SlotWaiters() < 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	a.Release()
	<-done
	if st := a.Stats(); st.SlotBusy < 5*time.Millisecond {
		t.Fatalf("a SlotBusy = %s, want >= 5ms", st.SlotBusy)
	}
	if st := b.Stats(); st.SlotWait < 5*time.Millisecond {
		t.Fatalf("b SlotWait = %s, want >= 5ms", st.SlotWait)
	}
	b.Release()
	a.Finish()
	b.Finish()
}

// TestInjectedAdmissionShed: the sched.admit fault site turns the query
// away before it queues — Admit returns the wrapped *faults.Fault, which
// the engine's retries treat as transient — and admits nothing.
func TestInjectedAdmissionShed(t *testing.T) {
	faults.Enable(faults.New(11, map[faults.Site]float64{faults.SchedAdmit: 1}))
	defer faults.Disable()
	s := New(Config{Slots: 1})
	_, err := s.Admit(context.Background())
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.SchedAdmit {
		t.Fatalf("Admit = %v, want the wrapped sched.admit fault", err)
	}
	if tot := s.Totals(); tot.Admitted != 0 || s.Queued() != 0 {
		t.Fatalf("refused admission left admitted=%d queued=%d", tot.Admitted, s.Queued())
	}
}
