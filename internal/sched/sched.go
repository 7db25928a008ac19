// Package sched is the process-wide query scheduler: admission control in
// front of the engine plus one global worker-slot pool shared by every
// concurrently admitted query.
//
// Admission: queries enter a FIFO queue and are admitted while the concurrency cap has room and — when a memory
// broker with a finite budget is attached — while the sum of admitted
// queries' minimum memory grants still fits the budget, so a query that
// could only run by thrashing the spill path queues instead. Queued
// queries time out after Config.QueueTimeout (or their context deadline).
//
// Slot leasing: the pool holds Config.Slots worker slots (the engine DOP).
// Pipeline workers Acquire a slot before running and Release it when done;
// the pool is work-conserving — a free slot is always granted immediately —
// and fairness applies under contention: a freed slot goes to the waiting
// query holding the fewest slots (FIFO tie-break),
// and a worker of a query holding more than its fair share hands its slot
// off at the next morsel boundary via MaybeYield. Because pipelines are
// morsel-granular, this time-slices the pool across concurrent queries
// without OS-level preemption.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
)

var (
	// ErrQueueTimeout is returned by Admit when a queued query waited
	// longer than Config.QueueTimeout.
	ErrQueueTimeout = errors.New("sched: admission queue timeout")
	// ErrOverloaded is the load-shedding sentinel: the overload controller
	// (or the sched.admit fault site) turned the query away before it
	// queued. The concrete error is an *OverloadError carrying a computed
	// retry-after; shed queries are safe to retry.
	ErrOverloaded = errors.New("sched: overloaded, query shed")
)

// OverloadError is the typed load-shedding error: it unwraps to
// ErrOverloaded and tells the caller when trying again is worthwhile.
type OverloadError struct {
	// After is the computed retry-after: roughly how long until the
	// pressure signal that tripped the controller could have decayed.
	After time.Duration
	// Reason describes the tripped signal for diagnostics.
	Reason string
	cause  error // non-nil when the sched.admit fault site shed the query
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%s; retry after %s)", ErrOverloaded, e.Reason, e.After)
}

// Unwrap exposes ErrOverloaded (and, for injected sheds, the fault) to
// errors.Is/As.
func (e *OverloadError) Unwrap() []error {
	if e.cause != nil {
		return []error{ErrOverloaded, e.cause}
	}
	return []error{ErrOverloaded}
}

// RetryAfter returns the computed backoff floor; the engine's retry
// policy and the HTTP Retry-After header both read it.
func (e *OverloadError) RetryAfter() time.Duration { return e.After }

// OverloadConfig parameterises the load-shedding controller; the zero
// value disables shedding entirely.
type OverloadConfig struct {
	// MaxQueueWaitP95: shed when the p95 of recent admission queue waits
	// exceeds this (0 disables the signal).
	MaxQueueWaitP95 time.Duration
	// MinFreeFraction: shed when the broker's free budget falls below
	// this fraction of the total (0 disables; needs a finite broker).
	MinFreeFraction float64
}

func (c OverloadConfig) enabled() bool {
	return c.MaxQueueWaitP95 > 0 || c.MinFreeFraction > 0
}

// queueWaitRing is the overload controller's pressure sample: the last
// ringSize admission queue waits (immediate admissions record ~0, so the
// p95 decays as load lightens). Its own mutex keeps it off s.mu.
const ringSize = 64

type queueWaitRing struct {
	mu   sync.Mutex
	buf  [ringSize]time.Duration
	n    int // samples recorded, capped at ringSize
	idx  int
	sort [ringSize]time.Duration // scratch for p95
}

func (r *queueWaitRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.idx] = d
	r.idx = (r.idx + 1) % ringSize
	if r.n < ringSize {
		r.n++
	}
	r.mu.Unlock()
}

// p95 returns the 95th percentile of the recorded waits, or 0 while
// fewer than 8 samples exist (a cold controller never sheds off one
// outlier).
func (r *queueWaitRing) p95() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < 8 {
		return 0
	}
	s := r.sort[:r.n]
	copy(s, r.buf[:r.n])
	slices.Sort(s)
	return s[(r.n-1)*95/100]
}

// Config parameterises a scheduler.
type Config struct {
	// Slots is the global worker-slot capacity shared by all admitted
	// queries — the engine DOP. Minimum 1.
	Slots int
	// MaxConcurrent caps the queries admitted at once; 0 means unlimited
	// (the slot pool still bounds actual parallelism).
	MaxConcurrent int
	// QueueTimeout bounds how long a query may wait in the admission
	// queue; 0 means wait until the caller's context cancels.
	QueueTimeout time.Duration
	// Broker, when non-nil and budgeted, coordinates admission with the
	// memory broker: a query is only admitted while its QueryDesc.MinMemory
	// fits what the budget can still grant.
	Broker *mem.Broker
	// Overload configures the load-shedding controller (zero disables):
	// when a pressure signal trips, admissions fail fast
	// with a typed *OverloadError instead of queueing into a timeout.
	Overload OverloadConfig
}

// QueryDesc registers one query with the scheduler at admission time.
type QueryDesc struct {
	// MinMemory is the smallest broker grant the query needs to run
	// without thrashing the spill path (0 = no memory requirement).
	MinMemory int64
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
	// Handoffs counts preempted-slot handoffs: slots this query's workers
	// gave up at a morsel boundary because the pool was contended and the
	// query held more than its fair share.
	Handoffs int64
}

// Totals are the scheduler's cumulative lifetime counters — the
// fleet-level view the per-query Stat cannot give (observability gauges
// and the /metrics exposition read these).
type Totals struct {
	// Admitted / Finished count queries past admission and past Finish.
	Admitted, Finished int64
	// Timeouts counts admissions abandoned on queue timeout.
	Timeouts int64
	// Shed counts queries turned away by the overload controller (or the
	// sched.admit fault site) with ErrOverloaded.
	Shed int64
}

// Scheduler owns the admission queue and the worker-slot pool.
type Scheduler struct {
	cfg    Config
	nextID atomic.Int64

	// Cumulative lifetime counters; see Totals.
	totAdmitted atomic.Int64
	totFinished atomic.Int64
	totTimeouts atomic.Int64
	totShed     atomic.Int64
	waits       queueWaitRing
	// nwait mirrors len(slotQ) so MaybeYield's per-batch fast path can
	// skip the mutex while the pool is uncontended.
	nwait atomic.Int32

	mu       sync.Mutex
	free     int
	seq      int64 // FIFO tie-break for slot waiters
	admitted map[*Query]struct{}
	memHeld  int64 // sum of admitted queries' MinMemory
	slotQ    []*slotWaiter
	admitQ   []*admitWaiter
}

// New creates a scheduler; see Config for semantics.
func New(cfg Config) *Scheduler {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	return &Scheduler{cfg: cfg, free: cfg.Slots, admitted: make(map[*Query]struct{})}
}

// Capacity returns the global worker-slot capacity.
func (s *Scheduler) Capacity() int { return s.cfg.Slots }

// InUse returns the slots currently leased across all queries.
func (s *Scheduler) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Slots - s.free
}

// Admitted returns the number of currently admitted queries.
func (s *Scheduler) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.admitted)
}

// Queued returns the length of the admission queue.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.admitQ)
}

// SlotWaiters returns the number of workers blocked waiting for a slot.
func (s *Scheduler) SlotWaiters() int { return int(s.nwait.Load()) }

// Totals snapshots the scheduler's cumulative lifetime counters.
func (s *Scheduler) Totals() Totals {
	return Totals{
		Admitted: s.totAdmitted.Load(),
		Finished: s.totFinished.Load(),
		Timeouts: s.totTimeouts.Load(),
		Shed:     s.totShed.Load(),
	}
}

// retry-after bounds: never tell a caller to hammer back instantly,
// never park it for more than 5s on one shed.
const (
	minRetryAfter = 25 * time.Millisecond
	maxRetryAfter = 5 * time.Second
)

func clampRetry(d time.Duration) time.Duration {
	return min(max(d, minRetryAfter), maxRetryAfter)
}

// shedCheck is the lock-free overload check: it returns a non-nil
// *OverloadError when a pressure signal (or the sched.admit fault site)
// says this admission should be shed.
func (s *Scheduler) shedCheck() *OverloadError {
	if fault := faults.Hit(faults.SchedAdmit); fault != nil {
		return &OverloadError{After: clampRetry(0), Reason: "injected admission perturbation", cause: fault}
	}
	oc := s.cfg.Overload
	if !oc.enabled() {
		return nil
	}
	if oc.MaxQueueWaitP95 > 0 {
		if p := s.waits.p95(); p > oc.MaxQueueWaitP95 {
			// Retrying before roughly a p95 wait has passed would just
			// rejoin the same congested queue.
			return &OverloadError{After: clampRetry(p), Reason: fmt.Sprintf("queue-wait p95 %s > %s", p, oc.MaxQueueWaitP95)}
		}
	}
	if oc.MinFreeFraction > 0 && s.cfg.Broker != nil && !s.cfg.Broker.Unlimited() {
		frac := float64(s.cfg.Broker.Free()) / float64(s.cfg.Broker.Budget())
		if frac < oc.MinFreeFraction {
			return &OverloadError{After: clampRetry(100 * time.Millisecond), Reason: fmt.Sprintf("broker free fraction %.2f < %.2f", frac, oc.MinFreeFraction)}
		}
	}
	return nil
}

type slotWaiter struct {
	q       *Query
	seq     int64
	ready   chan struct{}
	granted bool // written under s.mu before ready closes
}

type admitWaiter struct {
	d     QueryDesc
	ready chan *Query
	q     *Query // set under s.mu when granted
}

// Query is one admitted query's ticket: the handle its workers lease
// slots from and the carrier of its scheduling stats. Finish must be
// called exactly once when the query completes (idempotent).
type Query struct {
	s      *Scheduler
	id     int64
	minMem int64

	queueWait     time.Duration
	slotWaitNanos atomic.Int64
	handoffs      atomic.Int64

	// Guarded by s.mu.
	held       int
	demand     int // workers blocked in Acquire
	busy       time.Duration
	lastChange time.Time
	finished   bool
}

// ID returns the query's scheduler-unique id (used e.g. to scope spill
// directories per query).
func (q *Query) ID() int64 { return q.id }

// Stats snapshots the query's scheduling report.
func (q *Query) Stats() Stat {
	q.s.mu.Lock()
	busy := q.busy
	if q.held > 0 {
		busy += time.Duration(q.held) * time.Since(q.lastChange)
	}
	q.s.mu.Unlock()
	return Stat{
		QueueWait: q.queueWait,
		SlotWait:  time.Duration(q.slotWaitNanos.Load()),
		SlotBusy:  busy,
		Handoffs:  q.handoffs.Load(),
	}
}

// Held reports the worker slots the query holds right now — the live
// companion to Stats' occupancy integral, read by the in-flight query
// inspector.
func (q *Query) Held() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.held
}

// Admit registers a query and blocks until it is admitted, its context
// cancels, or the queue timeout expires. The returned ticket must be
// Finished when the query completes.
func (s *Scheduler) Admit(ctx context.Context, d QueryDesc) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err // already canceled/expired: never admit
	}
	if shed := s.shedCheck(); shed != nil {
		s.totShed.Add(1)
		return nil, shed
	}
	start := time.Now()
	s.mu.Lock()
	if len(s.admitQ) == 0 && s.admissibleLocked(d) {
		q := s.admitLocked(d)
		s.mu.Unlock()
		// An immediate admission is a ~zero queue wait: recording it is
		// what lets the p95 decay once pressure lifts.
		s.waits.record(time.Since(start))
		return q, nil
	}
	w := &admitWaiter{d: d, ready: make(chan *Query, 1)}
	s.admitQ = append(s.admitQ, w)
	s.pumpLocked() // broker memory freed since the last event may admit the head
	s.mu.Unlock()

	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	// While queued under a finite-budget broker, re-pump the admission
	// queue periodically: the memory gate reads broker.Free(), which can
	// grow mid-run (a spilling query releasing its build-side grants) with
	// no scheduler event to wake the queue — without this, a memory-gated
	// waiter could sit on freed memory until the holder's Finish. Queues
	// gated only by MaxConcurrent always drain on Finish, so they skip the
	// ticker (a nil channel never fires).
	var repumpC <-chan time.Time
	if s.cfg.Broker != nil && !s.cfg.Broker.Unlimited() {
		repump := time.NewTicker(10 * time.Millisecond)
		defer repump.Stop()
		repumpC = repump.C
	}
	for {
		select {
		case q := <-w.ready:
			q.queueWait = time.Since(start)
			s.waits.record(q.queueWait)
			return q, nil
		case <-ctx.Done():
			return nil, s.abandonAdmit(w, ctx.Err())
		case <-timeout:
			s.totTimeouts.Add(1)
			// A timed-out wait is the strongest congestion sample there is.
			s.waits.record(s.cfg.QueueTimeout)
			return nil, s.abandonAdmit(w, fmt.Errorf("%w after %s", ErrQueueTimeout, s.cfg.QueueTimeout))
		case <-repumpC:
			s.mu.Lock()
			s.pumpLocked()
			s.mu.Unlock()
		}
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
		s.pumpLocked() // the head may have been blocked behind this waiter
	}
	s.mu.Unlock()
	return err
}

// admissibleLocked decides whether a query could be admitted right now.
func (s *Scheduler) admissibleLocked(d QueryDesc) bool {
	if s.cfg.MaxConcurrent > 0 && len(s.admitted) >= s.cfg.MaxConcurrent {
		return false
	}
	b := s.cfg.Broker
	// The first query always admits — an over-budget minimum must degrade
	// to spilling, never deadlock the engine.
	if len(s.admitted) == 0 || b == nil || b.Unlimited() || d.MinMemory <= 0 {
		return true
	}
	// Available memory is the budget minus the larger of (a) the admitted
	// queries' committed minimums and (b) what the broker has actually
	// granted — (a) guards against admission stampedes before reservations
	// land, (b) against reservations that outgrew their minimums.
	avail := b.Free()
	if headroom := b.Budget() - s.memHeld; headroom < avail {
		avail = headroom
	}
	return d.MinMemory <= avail
}

func (s *Scheduler) admitLocked(d QueryDesc) *Query {
	q := &Query{
		s: s, id: s.nextID.Add(1),
		minMem:     max(0, d.MinMemory),
		lastChange: time.Now(),
	}
	s.admitted[q] = struct{}{}
	s.memHeld += q.minMem
	s.totAdmitted.Add(1)
	return q
}

// pumpLocked admits queued queries from the head while they fit. FIFO
// head-of-line blocking is deliberate: it keeps a big-minimum query from
// starving behind a stream of small ones.
func (s *Scheduler) pumpLocked() {
	for len(s.admitQ) > 0 {
		w := s.admitQ[0]
		if !s.admissibleLocked(w.d) {
			return
		}
		s.admitQ = s.admitQ[1:]
		w.q = s.admitLocked(w.d)
		w.ready <- w.q
	}
}

// Finish returns the query's admission (and any slots still held — a
// defensive reclaim) to the scheduler. Idempotent.
func (q *Query) Finish() {
	s := q.s
	s.mu.Lock()
	if q.finished {
		s.mu.Unlock()
		return
	}
	q.finished = true
	q.tickLocked()
	if q.held > 0 {
		s.free += q.held
		q.held = 0
	}
	delete(s.admitted, q)
	s.memHeld -= q.minMem
	s.totFinished.Add(1)
	s.grantLocked()
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

func (s *Scheduler) takeSlotLocked(q *Query) {
	q.tickLocked()
	q.held++
	s.free--
}

func (s *Scheduler) releaseSlotLocked(q *Query) {
	if q.held <= 0 {
		return // double release is an exec bug; never corrupt the pool
	}
	q.tickLocked()
	q.held--
	s.free++
	s.grantLocked()
}

// Acquire leases one worker slot, blocking while the pool is exhausted.
// It returns false — holding no slot — when stop closes first.
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
	s.mu.Lock()
	if q.finished {
		// A finished query can never lease (its reclaim already ran; a
		// grant here would leak the slot) — grantLocked has the same guard.
		s.mu.Unlock()
		return false
	}
	if s.free > 0 {
		// Work-conserving: a free slot is always granted immediately
		// (waiters exist only while free == 0).
		s.takeSlotLocked(q)
		s.mu.Unlock()
		return true
	}
	w := &slotWaiter{q: q, seq: s.seq, ready: make(chan struct{})}
	s.seq++
	s.slotQ = append(s.slotQ, w)
	q.demand++
	s.nwait.Add(1)
	s.mu.Unlock()
	start := time.Now()
	select {
	case <-w.ready:
		q.slotWaitNanos.Add(int64(time.Since(start)))
		return w.granted
	case <-stop:
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: hand the slot straight on.
			s.releaseSlotLocked(q)
		} else if i := slices.Index(s.slotQ, w); i >= 0 {
			s.slotQ = slices.Delete(s.slotQ, i, i+1)
			q.demand--
			s.nwait.Add(-1)
		}
		s.mu.Unlock()
		q.slotWaitNanos.Add(int64(time.Since(start)))
		return false
	}
}

// Release returns one leased slot to the pool.
func (q *Query) Release() {
	s := q.s
	s.mu.Lock()
	s.releaseSlotLocked(q)
	s.mu.Unlock()
}

// MaybeYield is the morsel-boundary preemption point: when the pool is
// contended, another query is waiting, and this query holds more than its
// fair share, the caller's slot is handed off and re-acquired (blocking).
// Returns false — holding no slot — when stop closes during re-acquisition.
func (q *Query) MaybeYield(stop <-chan struct{}) bool {
	s := q.s
	if s.nwait.Load() == 0 {
		return true // uncontended fast path: no lock on the batch loop
	}
	s.mu.Lock()
	if !s.shouldYieldLocked(q) {
		s.mu.Unlock()
		return true
	}
	s.releaseSlotLocked(q) // grants the slot to the best waiter
	s.mu.Unlock()
	q.handoffs.Add(1)
	return q.Acquire(stop)
}

// shouldYieldLocked: yield only when over fair share and the freed slot
// would actually go to another query. grantLocked picks fewest-held (as
// held will stand after this release), FIFO on ties — if that winner is
// one of q's own waiters, the handoff would be a no-op round-trip, so the
// slot is kept.
func (s *Scheduler) shouldYieldLocked(q *Query) bool {
	if q.held <= s.shareLocked() {
		return false
	}
	heldAfter := func(w *slotWaiter) int {
		if w.q == q {
			return q.held - 1
		}
		return w.q.held
	}
	var best *slotWaiter
	for _, w := range s.slotQ {
		switch {
		case best == nil:
			best = w
		case heldAfter(w) != heldAfter(best):
			if heldAfter(w) < heldAfter(best) {
				best = w
			}
		case w.seq < best.seq:
			best = w
		}
	}
	return best != nil && best.q != q
}

// shareLocked is the per-query fair share: capacity split over the
// queries that currently hold or want slots (min 1). Idle admitted
// queries don't dilute the share — that is the work-conserving part.
func (s *Scheduler) shareLocked() int {
	active := 0
	for q := range s.admitted {
		if q.held+q.demand > 0 {
			active++
		}
	}
	if active < 1 {
		active = 1
	}
	share := s.cfg.Slots / active
	if share < 1 {
		share = 1
	}
	return share
}

// grantLocked hands free slots to waiters: the query holding the fewest
// slots (furthest below its share) first, FIFO on ties.
func (s *Scheduler) grantLocked() {
	for s.free > 0 && len(s.slotQ) > 0 {
		best := -1
		for i, w := range s.slotQ {
			if best < 0 || betterWaiter(w, s.slotQ[best]) {
				best = i
			}
		}
		w := s.slotQ[best]
		s.slotQ = slices.Delete(s.slotQ, best, best+1)
		w.q.demand--
		s.nwait.Add(-1)
		if w.q.finished {
			// The query unwound while queued; wake the worker empty-handed.
			close(w.ready)
			continue
		}
		w.granted = true
		s.takeSlotLocked(w.q)
		close(w.ready)
	}
}

func betterWaiter(a, b *slotWaiter) bool {
	if a.q.held != b.q.held {
		return a.q.held < b.q.held
	}
	return a.seq < b.seq
}

// MinMemoryFor is a helper for admission registration: the minimum grant
// for a query with n spillable breakers (0 when the broker is unlimited).
func MinMemoryFor(b *mem.Broker, n int, perBreaker int64) int64 {
	if b == nil || b.Unlimited() || n <= 0 {
		return 0
	}
	if perBreaker <= 0 || int64(n) > math.MaxInt64/perBreaker {
		return 0
	}
	return int64(n) * perBreaker
}
