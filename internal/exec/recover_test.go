package exec

import (
	"errors"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"bfcbo/internal/query"
)

// A panic in one body must not cut the join short: every other body runs
// to completion first, then the caller gets the first trapped panic as a
// *trappedPanic carrying the original value and the stack of the
// goroutine that panicked.
func TestParallelForTrapsPanic(t *testing.T) {
	boom := errors.New("boom")
	var finished atomic.Int32
	release := make(chan struct{})
	var caught any
	func() {
		defer func() { caught = recover() }()
		parallelFor(8, func(i int) {
			if i == 3 {
				defer close(release) // siblings outlive the panic
				panicInBody(boom)
			}
			<-release
			finished.Add(1)
		})
		t.Error("parallelFor returned normally after a body panicked")
	}()
	if n := finished.Load(); n != 7 {
		t.Fatalf("panic surfaced with %d of 7 sibling bodies finished", n)
	}
	tp, ok := caught.(*trappedPanic)
	if !ok {
		t.Fatalf("caller recovered %T %v, want *trappedPanic", caught, caught)
	}
	if tp.val != boom {
		t.Fatalf("trapped value %v, want the original panic value", tp.val)
	}
	if !strings.Contains(string(tp.stack), "panicInBody") {
		t.Fatalf("trapped stack is not the panic site's:\n%s", tp.stack)
	}
	// The executor's shims turn it into the query's typed error, keeping
	// the cause and the original stack.
	err := (&executor{queryTag: "q1"}).panicErr(caught, "test")
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, ErrInternal) || !errors.Is(err, boom) {
		t.Fatalf("panicErr(%T) = %v, want a *PanicError wrapping ErrInternal and the cause", caught, err)
	}
	if !strings.Contains(string(pe.Stack), "panicInBody") {
		t.Fatalf("PanicError lost the panic site's stack:\n%s", pe.Stack)
	}
}

//go:noinline
func panicInBody(v any) { panic(v) }

// n ≤ 1 spawns nothing: the one body runs on the caller's own stack (so a
// panic in it reaches the caller's recover shim unwrapped), and n = 0
// runs no body at all.
func TestParallelForInline(t *testing.T) {
	parallelFor(0, func(int) { t.Error("body ran for n = 0") })
	ran := false
	parallelFor(1, func(i int) {
		ran = true
		if i != 0 {
			t.Errorf("body index %d, want 0", i)
		}
		if !strings.Contains(string(debug.Stack()), "TestParallelForInline(") {
			t.Error("n = 1 body is not running on the caller's stack")
		}
	})
	if !ran {
		t.Fatal("body did not run for n = 1")
	}
	parallelFor(4, func(int) {
		if strings.Contains(string(debug.Stack()), "TestParallelForInline(") {
			t.Error("n = 4 body is running on the caller's stack")
		}
	})
}

// concatPar hands (column, part) copies to at most dop copiers; however
// many tasks that makes, the result is the serial concat's.
func TestConcatParMatchesConcat(t *testing.T) {
	rels := query.NewRelSet(0, 2, 5)
	parts := make([]*RowSet, 9)
	next := int32(0)
	for i := range parts {
		if i%4 == 3 {
			continue // nil and empty parts are skipped
		}
		parts[i] = NewRowSet(rels)
		for r := 0; r < 700*(i+1); r++ {
			for c := range parts[i].cols {
				parts[i].cols[c] = append(parts[i].cols[c], next)
				next++
			}
		}
	}
	live, _ := partOffsets(parts)
	want := concat(rels, live)
	for _, dop := range []int{2, 3, 64} {
		got := concatPar(rels, parts, dop)
		if got.Len() != want.Len() {
			t.Fatalf("dop %d: %d rows, want %d", dop, got.Len(), want.Len())
		}
		for c := range want.cols {
			for i := range want.cols[c] {
				if got.cols[c][i] != want.cols[c][i] {
					t.Fatalf("dop %d: col %d row %d = %d, want %d", dop, c, i, got.cols[c][i], want.cols[c][i])
				}
			}
		}
	}
}
