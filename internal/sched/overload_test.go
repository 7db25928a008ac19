package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
)

// TestOverloadShedsOnQueueWaitP95 drives the queue-wait p95 over the
// threshold by feeding the ring synthetic congestion samples, then
// demands a typed shed (it unwraps to ErrOverloaded, which the engine's
// retry policy treats as transient) with a sane retry-after.
func TestOverloadShedsOnQueueWaitP95(t *testing.T) {
	s := New(Config{Slots: 1, Overload: OverloadConfig{MaxQueueWaitP95: 10 * time.Millisecond}})
	for i := 0; i < ringSize; i++ {
		s.waits.record(50 * time.Millisecond)
	}
	_, err := s.Admit(context.Background(), QueryDesc{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error is not *OverloadError: %v", err)
	}
	if oe.RetryAfter() < minRetryAfter || oe.RetryAfter() > maxRetryAfter {
		t.Fatalf("RetryAfter %s outside [%s, %s]", oe.RetryAfter(), minRetryAfter, maxRetryAfter)
	}
	if got := s.Totals().Shed; got != 1 {
		t.Fatalf("Totals.Shed = %d, want 1", got)
	}
}

// TestOverloadShedsOnFreeFraction trips the broker free-fraction signal.
func TestOverloadShedsOnFreeFraction(t *testing.T) {
	b := mem.NewBroker(1 << 20)
	s := New(Config{Slots: 1, Broker: b, Overload: OverloadConfig{MinFreeFraction: 0.5}})
	hog := b.NewQuery()
	defer hog.Close()
	res := hog.Reserve()
	if !res.Grow(900<<10, nil) {
		t.Fatal("grow failed")
	}
	_, err := s.Admit(context.Background(), QueryDesc{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit = %v, want ErrOverloaded", err)
	}
	res.Free()
	q, err := s.Admit(context.Background(), QueryDesc{})
	if err != nil {
		t.Fatalf("Admit after pressure lifted: %v", err)
	}
	q.Finish()
}

// TestColdControllerNeverSheds: with fewer than 8 samples the p95 signal
// stays 0, so a freshly started scheduler admits normally.
func TestColdControllerNeverSheds(t *testing.T) {
	s := New(Config{Slots: 1, Overload: OverloadConfig{MaxQueueWaitP95: time.Nanosecond}})
	for i := 0; i < 4; i++ {
		s.waits.record(time.Second)
	}
	q, err := s.Admit(context.Background(), QueryDesc{})
	if err != nil {
		t.Fatalf("cold controller shed: %v", err)
	}
	q.Finish()
}

// TestP95Decays: once congestion samples age out of the ring the
// controller re-opens admission.
func TestP95Decays(t *testing.T) {
	s := New(Config{Slots: 1, Overload: OverloadConfig{MaxQueueWaitP95: 10 * time.Millisecond}})
	for i := 0; i < ringSize; i++ {
		s.waits.record(time.Second)
	}
	if s.waits.p95() != time.Second {
		t.Fatalf("p95 = %s", s.waits.p95())
	}
	for i := 0; i < ringSize; i++ {
		s.waits.record(0)
	}
	if s.waits.p95() != 0 {
		t.Fatalf("p95 after decay = %s", s.waits.p95())
	}
	q, err := s.Admit(context.Background(), QueryDesc{})
	if err != nil {
		t.Fatalf("Admit after decay: %v", err)
	}
	q.Finish()
}

// TestInjectedAdmissionShed: the sched.admit fault site sheds exactly
// like the controller — typed, transient, counted — even with no
// overload config.
func TestInjectedAdmissionShed(t *testing.T) {
	faults.Enable(faults.New(11, map[faults.Site]float64{faults.SchedAdmit: 1}))
	defer faults.Disable()
	s := New(Config{Slots: 1})
	_, err := s.Admit(context.Background(), QueryDesc{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit = %v, want ErrOverloaded", err)
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.SchedAdmit {
		t.Fatalf("injected fault not wrapped: %v", err)
	}
	if s.Totals().Shed != 1 {
		t.Fatalf("Shed = %d", s.Totals().Shed)
	}
}
