package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
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

// The pool must be work-conserving (a free slot is granted immediately,
// however many the query already holds) and accounting must return to
// zero.
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

// queueWaiters waits, within a bound, until n workers are blocked in
// Acquire, then gives the last one time to park in the pool's queue.
func queueWaiters(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.SlotWaiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("slot waiters = %d after 5s, want %d", s.SlotWaiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
}

// A freed slot goes to the longest-waiting worker, whatever its query
// holds: first come, first served, and never a handoff. Every wait is
// bounded, so a lost wake-up fails the test instead of hanging it.
func TestConcurrentSlotGrantFIFO(t *testing.T) {
	s := New(Config{Slots: 3})
	a := mustAdmit(t, s)
	b := mustAdmit(t, s)
	a.Acquire(never)
	a.Acquire(never)
	b.Acquire(never)
	type grant struct {
		who string
		ok  bool
	}
	got := make(chan grant, 2)
	wait := func(who string, q *Query) {
		go func() { got <- grant{who, q.Acquire(never)} }()
	}
	next := func() grant {
		t.Helper()
		select {
		case g := <-got:
			if !g.ok {
				t.Fatalf("%s's acquire failed without cancellation", g.who)
			}
			return g
		case <-time.After(5 * time.Second):
			t.Fatal("no slot granted within 5s")
			return grant{}
		}
	}
	// a's waiter queues first, then b's; b frees a slot. a already holds
	// two and b none, but a's waiter came first.
	wait("a", a)
	queueWaiters(t, s, 1)
	wait("b", b)
	queueWaiters(t, s, 2)
	b.Release()
	if g := next(); g.who != "a" {
		t.Fatalf("freed slot went to %s's waiter, want a's (first in line)", g.who)
	}
	a.Release()
	if g := next(); g.who != "b" {
		t.Fatalf("second freed slot went to %s's waiter, want b's", g.who)
	}
	if ha, hb := a.Stats().Handoffs, b.Stats().Handoffs; ha != 0 || hb != 0 {
		t.Fatalf("handoffs = %d, %d, want 0", ha, hb)
	}
	for range a.Held() {
		a.Release()
	}
	b.Release()
	a.Finish()
	b.Finish()
	if s.InUse() != 0 || s.SlotWaiters() != 0 {
		t.Fatalf("pool dirty after teardown: inUse=%d waiters=%d", s.InUse(), s.SlotWaiters())
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
// context.Canceled; both must drain the queue. Each refusal is an
// *AdmitError carrying the ID its query took on entry, distinct from every
// other query's.
func TestConcurrentQueueDeadlineAndCancel(t *testing.T) {
	s := New(Config{Slots: 1, MaxConcurrent: 1})
	first := mustAdmit(t, s)
	ids := map[int64]bool{first.ID(): true}
	refusedID := func(err error) {
		t.Helper()
		var ae *AdmitError
		if !errors.As(err, &ae) || ae.ID == 0 || ids[ae.ID] {
			t.Fatalf("refusal %v: want an *AdmitError with a fresh non-zero ID (taken: %v)", err, ids)
		}
		ids[ae.ID] = true
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	_, err := s.Admit(dctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	refusedID(err)
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
	err = <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	refusedID(err)
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

// Hammer the pool from many queries under -race: the slots held at once,
// counted from outside the pool, must never exceed Slots, and the
// accounting must drain to zero.
func TestConcurrentPoolStress(t *testing.T) {
	const slots = 3
	s := New(Config{Slots: slots})
	var held, maxHeld atomic.Int32
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
				n := held.Add(1)
				for m := maxHeld.Load(); n > m && !maxHeld.CompareAndSwap(m, n); m = maxHeld.Load() {
				}
				runtime.Gosched()
				held.Add(-1)
				q.Release()
			}
		}()
	}
	wg.Wait()
	if m := maxHeld.Load(); m > slots {
		t.Fatalf("%d slots held at once, want at most %d", m, slots)
	}
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
// the engine surfaces as the query's error — and admits nothing.
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
