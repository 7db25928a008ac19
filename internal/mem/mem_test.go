package mem

import (
	"sync"
	"testing"
)

func TestGrowWithinBudget(t *testing.T) {
	b := NewBroker(1000)
	q := b.NewQuery()
	defer q.Close()
	r := q.Reserve()
	if !r.Grow(600, nil) {
		t.Fatal("first grant within budget denied")
	}
	if !r.Grow(400, nil) {
		t.Fatal("grant exactly filling the budget denied")
	}
	if r.Grow(1, nil) {
		t.Fatal("grant over budget granted")
	}
	if got := b.Used(); got != 1000 {
		t.Fatalf("Used = %d, want 1000", got)
	}
	if got := b.Denials(); got != 1 {
		t.Fatalf("Denials = %d, want 1", got)
	}
	r.Release(500)
	if !r.Grow(500, nil) {
		t.Fatal("grant after release denied")
	}
	if got := b.Peak(); got != 1000 {
		t.Fatalf("Peak = %d, want 1000", got)
	}
}

func TestUnlimitedBrokerGrantsEverything(t *testing.T) {
	b := NewBroker(0)
	r := b.NewQuery().Reserve()
	if !r.Grow(1<<40, nil) {
		t.Fatal("unlimited broker denied a grant")
	}
	if got := b.Used(); got != 1<<40 {
		t.Fatalf("Used = %d, want %d", got, int64(1)<<40)
	}
}

// A denied grant must invoke the spill callback, and succeed when the
// callback frees enough.
func TestSpillCallbackOnDenial(t *testing.T) {
	b := NewBroker(1000)
	q := b.NewQuery()
	defer q.Close()
	r := q.Reserve()
	r.Force(900)
	spilled := false
	ok := r.Grow(400, func(need int64) int64 {
		spilled = true
		if need != 400 {
			t.Errorf("need = %d, want 400", need)
		}
		r.Release(900) // "spill" everything held
		return 900
	})
	if !spilled {
		t.Fatal("spill callback never invoked")
	}
	if !ok {
		t.Fatal("grant denied even after the callback freed room")
	}
	if got := r.held.Load(); got != 400 {
		t.Fatalf("Held = %d, want 400", got)
	}
	// A callback that frees nothing leaves the request denied.
	if r.Grow(10_000, func(int64) int64 { return 0 }) {
		t.Fatal("grant over budget granted despite no-op spill")
	}
}

func TestForceOverBudgetIsAccounted(t *testing.T) {
	b := NewBroker(100)
	q := b.NewQuery()
	defer q.Close()
	r := q.Reserve()
	r.Force(500)
	if got := b.Used(); got != 500 {
		t.Fatalf("Used = %d, want 500 (forced overage must be accounted)", got)
	}
	// Normal grants are squeezed out by the overage.
	if r.Grow(1, nil) {
		t.Fatal("grant should be denied while forced overage holds the budget")
	}
}

func TestQueryCloseReleasesEverything(t *testing.T) {
	b := NewBroker(1000)
	q := b.NewQuery()
	r1 := q.Reserve()
	r2 := q.Reserve()
	r1.Grow(300, nil)
	r2.Force(2000)
	r1.Release(100)
	if used, peak := q.Used(), q.Peak(); used != 2200 || peak != 2300 {
		t.Fatalf("query used/peak = %d/%d, want 2200/2300", used, peak)
	}
	q.Close()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after Close = %d, want 0", got)
	}
	if used, peak := q.Used(), q.Peak(); used != 0 || peak != 2300 {
		t.Fatalf("query used/peak after Close = %d/%d, want 0/2300", used, peak)
	}
	// A later query's peak is its own, not the broker's lifetime mark.
	q2 := b.NewQuery()
	q2.Reserve().Force(10)
	if q2.Peak() != 10 || b.Peak() != 2300 {
		t.Fatalf("second query peak = %d (broker %d), want 10 (2300)", q2.Peak(), b.Peak())
	}
	q2.Close()
	q.Close() // idempotent
	// Double free on a reservation must not go negative.
	r1.Free()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after double free = %d, want 0", got)
	}
}

func TestConcurrentGrowRelease(t *testing.T) {
	b := NewBroker(1 << 20)
	q := b.NewQuery()
	defer q.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		r := q.Reserve()
		wg.Add(1)
		go func(r *Reservation) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if r.Grow(64, nil) {
					r.Release(64)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used after balanced grow/release = %d, want 0", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"64KB", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"2M", 2 << 20, false},
		{"1GB", 1 << 30, false},
		{"5B", 5, false},
		{" 16 MB ", 16 << 20, false},
		{"nope", 0, true},
		{"-1", 0, true},
		{"8589934591G", 8589934591 << 30, false},
		{"8589934592G", 0, true},
		{"17179869184GB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBytes(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	for _, c := range []struct {
		in   int64
		want string
	}{{512, "512B"}, {64 << 10, "64KB"}, {1536, "1.5KB"}, {1 << 20, "1MB"}, {3 << 30, "3GB"}} {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
