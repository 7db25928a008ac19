// Package sched is the process-wide query scheduler: admission control in
// front of the engine plus one global worker-slot pool shared by every
// concurrently admitted query.
//
// Admission counts queries: they enter a FIFO queue and are admitted while
// fewer than Config.MaxConcurrent are running. A queued query waits until
// it is admitted or its context is canceled or expires. Memory plays no
// part in admission: the memory broker bounds it, one grant at a time, and
// a hash build denied a grant spills.
//
// Slot leasing: the pool is a counting semaphore of Config.Slots worker
// slots (the engine DOP). A pipeline worker Acquires a slot before its
// first morsel and Releases it after its last. A free slot goes out at
// once; while the pool is exhausted, blocked workers are granted slots
// first come, first served, whatever query they belong to. Nothing is
// preempted: a worker gives its slot up only when it is done.
package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/faults"
)

// Config parameterises a scheduler.
type Config struct {
	// Slots is the global worker-slot capacity shared by all admitted
	// queries — the engine DOP. Minimum 1.
	Slots int
	// MaxConcurrent caps the queries admitted at once; 0 means unlimited
	// (the slot pool still bounds actual parallelism).
	MaxConcurrent int
}

// Stat is the per-query scheduling report.
type Stat struct {
	// QueueWait is the time spent in the admission queue.
	QueueWait time.Duration
	// SlotWait is the summed time the query's workers spent blocked
	// waiting for worker slots.
	SlotWait time.Duration
	// SlotBusy is the slot occupancy: the time integral of held slots
	// (two slots held for 1s = 2s), comparable across concurrent queries.
	SlotBusy time.Duration
	// Handoffs is always 0: the pool never preempts a worker's slot. The
	// field stays for readers that still report it.
	Handoffs int64
}

// Totals are the scheduler's cumulative lifetime counters — the
// fleet-level view the per-query Stat cannot give (observability gauges
// and the /metrics exposition read these).
type Totals struct {
	// Admitted / Finished count queries past admission and past Finish.
	Admitted, Finished int64
}

// Scheduler owns the admission queue and the worker-slot pool.
type Scheduler struct {
	cfg    Config
	nextID atomic.Int64

	// slots holds one token per leased worker slot: a send leases, a
	// receive releases. Go queues blocked senders FIFO, and a freed slot
	// goes straight to the longest-waiting one.
	slots chan struct{}
	// waiting counts workers blocked in Acquire.
	waiting atomic.Int32

	// Cumulative lifetime counters; see Totals.
	totAdmitted atomic.Int64
	totFinished atomic.Int64

	mu       sync.Mutex
	admitted int
	admitQ   []*admitWaiter
}

// New creates a scheduler; see Config for semantics.
func New(cfg Config) *Scheduler {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	return &Scheduler{cfg: cfg, slots: make(chan struct{}, cfg.Slots)}
}

// Capacity returns the global worker-slot capacity.
func (s *Scheduler) Capacity() int { return cap(s.slots) }

// InUse returns the slots currently leased across all queries.
func (s *Scheduler) InUse() int { return len(s.slots) }

// Admitted returns the number of currently admitted queries.
func (s *Scheduler) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// Queued returns the length of the admission queue.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.admitQ)
}

// SlotWaiters returns the number of workers blocked waiting for a slot.
func (s *Scheduler) SlotWaiters() int { return int(s.waiting.Load()) }

// Totals snapshots the scheduler's cumulative lifetime counters.
func (s *Scheduler) Totals() Totals {
	return Totals{
		Admitted: s.totAdmitted.Load(),
		Finished: s.totFinished.Load(),
	}
}

type admitWaiter struct {
	ready chan *Query
	id    int64
	q     *Query // set under s.mu when granted
}

// Query is one admitted query's ticket: the handle its workers lease
// slots from and the carrier of its scheduling stats. Finish must be
// called exactly once when the query completes (idempotent).
type Query struct {
	s  *Scheduler
	id int64

	queueWait     time.Duration
	slotWaitNanos atomic.Int64

	mu         sync.Mutex
	held       int
	busy       time.Duration
	lastChange time.Time
	finished   bool
}

// ID returns the query's scheduler-unique id (used e.g. to scope spill
// directories per query).
func (q *Query) ID() int64 { return q.id }

// Stats snapshots the query's scheduling report.
func (q *Query) Stats() Stat {
	q.mu.Lock()
	busy := q.busy
	if q.held > 0 {
		busy += time.Duration(q.held) * time.Since(q.lastChange)
	}
	q.mu.Unlock()
	return Stat{
		QueueWait: q.queueWait,
		SlotWait:  time.Duration(q.slotWaitNanos.Load()),
		SlotBusy:  busy,
	}
}

// Held reports the worker slots the query holds right now — the live
// companion to Stats' occupancy integral, read by the in-flight query
// inspector.
func (q *Query) Held() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.held
}

// AdmitError is Admit's refusal: the ID the query was given on entry and
// why it was turned away (a *faults.Fault, or the context's error).
type AdmitError struct {
	ID  int64
	Err error
}

func (e *AdmitError) Error() string { return e.Err.Error() }
func (e *AdmitError) Unwrap() error { return e.Err }

// Admit registers a query and blocks until it is admitted or its context
// is canceled or expires. The query takes its scheduler-unique ID on entry,
// so a query refused or canceled while queued has one too: the returned
// *AdmitError carries it. The returned ticket must be Finished when the
// query completes. The sched.admit fault site refuses the admission with a
// wrapped *faults.Fault.
func (s *Scheduler) Admit(ctx context.Context) (*Query, error) {
	id := s.nextID.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, &AdmitError{ID: id, Err: err} // already canceled/expired: never admit
	}
	if fault := faults.Hit(faults.SchedAdmit); fault != nil {
		return nil, &AdmitError{ID: id, Err: fmt.Errorf("sched: admission refused: %w", fault)}
	}
	start := time.Now()
	s.mu.Lock()
	if len(s.admitQ) == 0 && s.admissibleLocked() {
		q := s.admitLocked(id)
		s.mu.Unlock()
		return q, nil
	}
	w := &admitWaiter{ready: make(chan *Query, 1), id: id}
	s.admitQ = append(s.admitQ, w)
	s.mu.Unlock()

	select {
	case q := <-w.ready:
		q.queueWait = time.Since(start)
		return q, nil
	case <-ctx.Done():
		return nil, &AdmitError{ID: id, Err: s.abandonAdmit(w, ctx.Err())}
	}
}

// abandonAdmit withdraws a queued admission; if the grant raced the
// cancellation, the granted ticket is returned to the scheduler.
func (s *Scheduler) abandonAdmit(w *admitWaiter, err error) error {
	s.mu.Lock()
	if w.q != nil {
		q := w.q
		s.mu.Unlock()
		q.Finish()
		return err
	}
	if i := slices.Index(s.admitQ, w); i >= 0 {
		s.admitQ = slices.Delete(s.admitQ, i, i+1)
	}
	s.mu.Unlock()
	return err
}

// admissibleLocked decides whether a query could be admitted right now.
func (s *Scheduler) admissibleLocked() bool {
	return s.cfg.MaxConcurrent <= 0 || s.admitted < s.cfg.MaxConcurrent
}

func (s *Scheduler) admitLocked(id int64) *Query {
	q := &Query{s: s, id: id, lastChange: time.Now()}
	s.admitted++
	s.totAdmitted.Add(1)
	return q
}

// pumpLocked admits queued queries from the head, FIFO, while the
// concurrency cap has room.
func (s *Scheduler) pumpLocked() {
	for len(s.admitQ) > 0 && s.admissibleLocked() {
		w := s.admitQ[0]
		s.admitQ = s.admitQ[1:]
		w.q = s.admitLocked(w.id)
		w.ready <- w.q
	}
}

// Finish returns the query's admission (and any slots still held — a
// defensive reclaim) to the scheduler. Idempotent.
func (q *Query) Finish() {
	q.mu.Lock()
	if q.finished {
		q.mu.Unlock()
		return
	}
	q.finished = true
	q.tickLocked()
	held := q.held
	q.held = 0
	q.mu.Unlock()
	s := q.s
	for range held {
		<-s.slots
	}
	s.mu.Lock()
	s.admitted--
	s.totFinished.Add(1)
	s.pumpLocked()
	s.mu.Unlock()
}

// tickLocked folds the elapsed (held × time) occupancy into busy.
func (q *Query) tickLocked() {
	now := time.Now()
	if q.held > 0 {
		q.busy += time.Duration(q.held) * now.Sub(q.lastChange)
	}
	q.lastChange = now
}

// Acquire leases one worker slot, blocking while the pool is exhausted.
// It returns false — holding no slot — when stop closes first, or when
// the query has finished.
func (q *Query) Acquire(stop <-chan struct{}) bool {
	s := q.s
	// The sched.slot fault site stalls this acquisition, perturbing
	// morsel interleavings without changing any scheduling decision.
	if d := faults.SlotDelay(); d > 0 {
		select {
		case <-time.After(d):
		case <-stop:
		}
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.waiting.Add(1)
		start := time.Now()
		var ok bool
		select {
		case s.slots <- struct{}{}:
			ok = true
		case <-stop:
		}
		q.slotWaitNanos.Add(int64(time.Since(start)))
		s.waiting.Add(-1)
		if !ok {
			return false
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		// Finish's reclaim already ran; keeping the slot would leak it.
		<-s.slots
		return false
	}
	q.tickLocked()
	q.held++
	return true
}

// Release returns one leased slot to the pool.
func (q *Query) Release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.held <= 0 {
		return // double release is an exec bug; never corrupt the pool
	}
	q.tickLocked()
	q.held--
	<-q.s.slots
}
