package exec

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// ErrInternal is the sentinel under every recovered panic: a query that
// trips an internal invariant (a plan-wiring bug, an injected worker
// panic) fails with an error wrapping ErrInternal instead of killing
// the process.
var ErrInternal = errors.New("exec: internal error (recovered panic)")

// PanicError is a panic converted to a per-query error by one of the
// executor's recover shims. It carries the query id and fingerprint,
// where in the run the panic fired, the original panic value, and the
// stack captured at the panic site.
type PanicError struct {
	Query       string // scheduler query tag ("q17")
	Fingerprint string // plan fingerprint hex, when known
	Where       string // which shim caught it ("pipeline P2 worker 3")
	Value       any    // the original panic value
	Stack       []byte // stack captured at the panic site
}

func (e *PanicError) Error() string {
	fp := e.Fingerprint
	if fp == "" {
		fp = "-"
	}
	return fmt.Sprintf("exec: recovered panic in %s (query %s, fingerprint %s): %v\n%s",
		e.Where, e.Query, fp, e.Value, e.Stack)
}

// Unwrap exposes ErrInternal always, plus the panic value itself when
// it was an error — so an injected panic fault keeps its transient
// identity through recovery while a real invariant violation (a string
// panic) stays deterministic and non-retryable.
func (e *PanicError) Unwrap() []error {
	if cause, ok := e.Value.(error); ok {
		return []error{ErrInternal, cause}
	}
	return []error{ErrInternal}
}

// trappedPanic is the value a panicTrap rethrows on the joining
// goroutine: the helper goroutine's original panic value plus the stack
// captured where it fired, so the converting shim reports the real
// site, not the rethrow.
type trappedPanic struct {
	val   any
	stack []byte
}

// panicTrap carries a panic out of forked helper goroutines back to the
// fork-join caller: each helper defers catch(), the caller calls rethrow()
// after the join. Only parallelFor uses it.
type panicTrap struct {
	once  sync.Once
	val   any
	stack []byte
}

// catch must be deferred first thing in each forked goroutine.
func (t *panicTrap) catch() {
	if v := recover(); v != nil {
		t.once.Do(func() { t.val, t.stack = v, debug.Stack() })
	}
}

// rethrow re-panics the first trapped value on the caller's goroutine;
// no-op when no helper panicked. Call it after the join (the join's
// happens-before makes the plain field reads safe).
func (t *panicTrap) rethrow() {
	if t.val != nil {
		panic(&trappedPanic{val: t.val, stack: t.stack})
	}
}

// parallelFor is the executor's one fork-join helper: it runs fn(0) …
// fn(n-1), each on its own goroutine, and returns when all have. Every
// breaker finish phase goes through it, so this is the single place that
// spawns helper goroutines — and the single place they would lease
// scheduler slots from.
//
// A panic in any body is trapped, the remaining bodies still run to
// completion, and the first trapped panic is re-raised on the caller's
// goroutine as a *trappedPanic carrying the original value and stack —
// the caller sits under one of the executor's recover shims, which turns
// it into the query's *PanicError. With n ≤ 1 the body runs inline on the
// caller, where a panic reaches the same shim directly.
func parallelFor(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	var trap panicTrap
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer trap.catch()
			fn(i)
		}(i)
	}
	wg.Wait()
	trap.rethrow()
}

// panicErr converts a recovered panic value into the query's typed
// *PanicError, unwrapping a trap-carried panic to its original value
// and stack.
func (ex *executor) panicErr(v any, where string) error {
	val := v
	var stack []byte
	if tp, ok := v.(*trappedPanic); ok {
		val, stack = tp.val, tp.stack
	}
	if stack == nil {
		stack = debug.Stack()
	}
	return &PanicError{Query: ex.queryTag, Fingerprint: ex.fpHex, Where: where, Value: val, Stack: stack}
}
