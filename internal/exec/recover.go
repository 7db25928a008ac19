package exec

import (
	"errors"
	"fmt"
	"runtime/debug"
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
// it was an error — so an injected panic fault keeps its *faults.Fault
// identity through recovery while a real invariant violation (a string
// panic) carries none.
func (e *PanicError) Unwrap() []error {
	if cause, ok := e.Value.(error); ok {
		return []error{ErrInternal, cause}
	}
	return []error{ErrInternal}
}

// panicErr converts a recovered panic value into the query's typed
// *PanicError. It is called from the deferred recover, where the stack
// still holds the panic site.
func (ex *executor) panicErr(v any, where string) error {
	return &PanicError{Query: ex.queryTag, Fingerprint: ex.fpHex, Where: where, Value: v, Stack: debug.Stack()}
}
