package faults

import (
	"errors"
	"testing"
	"time"
)

// TestDeterministic replays the same seed twice and demands an
// identical fire/no-fire sequence — the property the chaos soak's
// reproducibility rests on.
func TestDeterministic(t *testing.T) {
	run := func() []bool {
		inj := New(42, map[Site]float64{SpillWrite: 0.3, ExecError: 0.1})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, inj.hit(SpillWrite) != nil)
			out = append(out, inj.hit(ExecError) != nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	inj := New(7, map[Site]float64{MemDeny: 0.25})
	fired := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if inj.hit(MemDeny) != nil {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("p=0.25 site fired at %.3f", frac)
	}
	st := inj.Stats()
	if len(st) != 1 || st[0].Site != "mem.deny" || st[0].Checked != n || st[0].Fired != uint64(fired) {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

func TestEdgeProbabilities(t *testing.T) {
	inj := New(1, map[Site]float64{SpillRead: 1, SpillSync: 0})
	for i := 0; i < 100; i++ {
		if inj.hit(SpillRead) == nil {
			t.Fatal("p=1 site did not fire")
		}
		if inj.hit(SpillSync) != nil {
			t.Fatal("p=0 site fired")
		}
	}
}

func TestDisabledPathsReturnNil(t *testing.T) {
	Disable()
	if Hit(ExecPanic) != nil || SlotDelay() != 0 || ChargeSpillBytes(1<<20) != nil {
		t.Fatal("disabled injector produced a fault")
	}
	if active.Load() != nil || TotalFired() != 0 {
		t.Fatal("disabled injector reports activity")
	}
}

func TestDiskFullFiresAfterBudget(t *testing.T) {
	inj, err := Parse("seed=3,spill.diskfull=1000")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	defer Disable()
	if err := ChargeSpillBytes(600); err != nil {
		t.Fatalf("under budget: %v", err)
	}
	if err := ChargeSpillBytes(600); err == nil {
		t.Fatal("over budget did not fire")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Site != SpillDiskFull {
			t.Fatalf("wrong fault: %v", err)
		}
	}
	// A full disk stays full.
	if ChargeSpillBytes(1) == nil {
		t.Fatal("disk un-filled itself")
	}
}

func TestSlotDelay(t *testing.T) {
	inj, err := Parse("seed=9,sched.slot=1,slotdelay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	defer Disable()
	if d := SlotDelay(); d != 5*time.Millisecond {
		t.Fatalf("SlotDelay = %v", d)
	}
}

func TestParse(t *testing.T) {
	inj, err := Parse("seed=42, spill.write=0.5, exec.panic=0.01, spill.diskfull=2MB, slotdelay=3ms, sched.slot=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if inj.diskLimit != 2<<20 || inj.slotDelay != 3*time.Millisecond {
		t.Fatalf("parsed config: diskLimit=%d slotDelay=%v", inj.diskLimit, inj.slotDelay)
	}
	if inj.prob[SpillWrite] == 0 || inj.prob[ExecPanic] == 0 || inj.prob[SchedSlot] == 0 {
		t.Fatal("site probabilities not set")
	}
	if inj.prob[MemDeny] != 0 {
		t.Fatal("unconfigured site has a probability")
	}
	if i2, err := Parse("  "); err != nil || i2 != nil {
		t.Fatalf("empty spec: %v %v", i2, err)
	}
	for _, bad := range []string{"nope", "bogus.site=0.1", "spill.write=2", "seed=x", "spill.diskfull=-1",
		"spill.diskfull=8589934592G", "spill.diskfull=17179869184GB", "exec.error=NaN"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestFaultErrorText(t *testing.T) {
	f := &Fault{Site: ExecPanic, Seq: 17}
	want := "faults: injected exec.panic fault (seq 17)"
	if f.Error() != want {
		t.Fatalf("Error() = %q, want %q", f.Error(), want)
	}
}

// BenchmarkHitDisabled is the production-path gate: with no injector
// installed a site check must be one atomic load and zero allocations.
func BenchmarkHitDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Hit(SpillWrite) != nil {
			b.Fatal("fired while disabled")
		}
	}
}

// BenchmarkHitEnabledMiss gates the armed-but-not-firing path: checks
// that never fire must also stay allocation-free, since a chaos run
// executes millions of them.
func BenchmarkHitEnabledMiss(b *testing.B) {
	inj := New(5, map[Site]float64{SpillWrite: 0})
	Enable(inj)
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Hit(SpillWrite) != nil {
			b.Fatal("p=0 fired")
		}
	}
}
