package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bfcbo/internal/faults"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/sched"
	"bfcbo/internal/spill"
	"bfcbo/internal/tpch"
)

// The chaos suite: deterministic fault injection across the spill, mem,
// sched, and exec sites, asserting the PR 10 hardening contract — one
// poisoned query never kills the process, every fault-hit query either
// fails with a typed error or succeeds bit-identically to a fault-free
// run, and the shared engine state (broker bytes, worker slots, spill
// files, goroutines) is spotless afterwards.

// chaosSeed drives every injector in this file; logged so a failure
// reproduces with the exact same fault schedule.
const chaosSeed = 20260808

// typedFailure reports whether err belongs to the engine's declared
// failure taxonomy — the only errors a fault-hit query may surface.
func typedFailure(err error) bool {
	var f *faults.Fault
	var pe *PanicError
	return errors.As(err, &f) || errors.As(err, &pe) ||
		errors.Is(err, ErrInternal) ||
		errors.Is(err, spill.ErrIO) || errors.Is(err, spill.ErrDiskFull)
}

// chaosPlan plans one built-in TPC-H query under BF-CBO against the
// shared equivalence dataset.
func chaosPlan(t *testing.T, num int) (*query.Block, *optimizer.Result) {
	t.Helper()
	ds := equivalenceDataset(t)
	q, ok := tpch.Get(num)
	if !ok {
		t.Fatalf("no TPC-H query %d", num)
	}
	block := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.BFCBO
	res, err := optimizer.Optimize(block, opts)
	if err != nil {
		t.Fatalf("Q%d: optimize: %v", num, err)
	}
	return block, res
}

// TestInjectedWorkerPanicContained: a worker panic injected at a morsel
// boundary must surface as a typed *PanicError carrying the query tag
// and a stack — not crash the process — and must unwind the broker, the
// slot pool, and every helper goroutine. With the injector off again the
// same query runs clean.
func TestInjectedWorkerPanicContained(t *testing.T) {
	ds := equivalenceDataset(t)
	block, res := chaosPlan(t, 3)
	clean, err := Run(ds.DB, block, res.Plan, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	broker := mem.NewBroker(0)
	scheduler := sched.New(sched.Config{Slots: 4})

	faults.Enable(faults.New(chaosSeed, map[faults.Site]float64{faults.ExecPanic: 1}))
	defer faults.Disable()
	_, err = RunContext(context.Background(), ds.DB, block, res.Plan, Options{
		DOP: 4, Sched: scheduler, Broker: broker,
	})
	if err == nil {
		t.Fatal("injected worker panic surfaced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not typed: %T %v", err, err)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("PanicError does not wrap ErrInternal: %v", err)
	}
	if pe.Query == "" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing context: query=%q stack=%d bytes", pe.Query, len(pe.Stack))
	}
	// The panic value was an injected fault — an error — so the chain
	// stays inspectable and the failure reads as the injected fault.
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("injected fault not reachable through the panic chain: %v", err)
	}

	faults.Disable()
	waitGoroutines(t, before)
	if aerr := Audit(AuditState{Broker: broker, Sched: scheduler}); aerr != nil {
		t.Fatalf("post-panic audit: %v", aerr)
	}
	r, err := RunContext(context.Background(), ds.DB, block, res.Plan, Options{
		DOP: 4, Sched: scheduler, Broker: broker,
	})
	if err != nil {
		t.Fatalf("query still failing after injector disabled: %v", err)
	}
	if r.Rows != clean.Rows {
		t.Fatalf("post-chaos rows = %d, want %d", r.Rows, clean.Rows)
	}
}

// TestBreakerFinishPanicContained: a panic inside a breaker finish — on
// the pipeline's last worker, inside its slot — is caught by that worker's
// shim. Q3's BF-CBO plan with one filter wired to build from its apply
// column makes the Bloom population ask the build side for a relation it
// does not hold. The query fails with a *PanicError for a worker of the
// pipeline, wrapping ErrInternal, and leaves no goroutine, slot or broker
// byte behind.
func TestBreakerFinishPanicContained(t *testing.T) {
	ds := equivalenceDataset(t)
	block, res := chaosPlan(t, 3)
	if len(res.Plan.Blooms) == 0 {
		t.Fatal("Q3's BF-CBO plan has no Bloom filter")
	}
	miswired := *res.Plan
	miswired.Blooms = append([]plan.BloomSpec(nil), res.Plan.Blooms...)
	spec := &miswired.Blooms[0]
	spec.BuildRel, spec.BuildCol = spec.ApplyRel, spec.ApplyCol

	before := runtime.NumGoroutine()
	broker := mem.NewBroker(0)
	scheduler := sched.New(sched.Config{Slots: 4})
	_, err := RunContext(context.Background(), ds.DB, block, &miswired, Options{
		DOP: 4, Sched: scheduler, Broker: broker,
	})
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, ErrInternal) {
		t.Fatalf("breaker panic not typed: %T %v", err, err)
	}
	if !strings.HasPrefix(pe.Where, "pipeline P0 worker ") {
		t.Fatalf("panic caught in %q, want a P0 worker's shim (\"pipeline P0 worker <n>\")", pe.Where)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "no relation") || !strings.Contains(string(pe.Stack), "feedVector") {
		t.Fatalf("PanicError lost the panic site: value %v\n%s", pe.Value, pe.Stack)
	}
	waitGoroutines(t, before)
	if aerr := Audit(AuditState{Broker: broker, Sched: scheduler}); aerr != nil {
		t.Fatalf("post-panic audit: %v", aerr)
	}
}

// TestInjectedWorkerErrorTyped: the plain-error site fails the query
// with the *faults.Fault preserved in the chain and no panic machinery
// involved.
func TestInjectedWorkerErrorTyped(t *testing.T) {
	ds := equivalenceDataset(t)
	block, res := chaosPlan(t, 12)
	before := runtime.NumGoroutine()
	faults.Enable(faults.New(chaosSeed, map[faults.Site]float64{faults.ExecError: 1}))
	defer faults.Disable()
	_, err := Run(ds.DB, block, res.Plan, Options{DOP: 4})
	if err == nil {
		t.Fatal("injected worker error surfaced no error")
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.ExecError {
		t.Fatalf("worker error not typed: %v", err)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("plain injected error took the panic path: %v", err)
	}
	faults.Disable()
	waitGoroutines(t, before)
}

// rowsetPanicOp triggers the rowset satellite's target on its first
// NextBatch: Col on a relation the row set does not hold panics with
// "no relation", which must cross the worker shim as a typed internal
// error instead of aborting the process.
type rowsetPanicOp struct {
	child PhysicalOperator
	once  sync.Once
}

func (o *rowsetPanicOp) Open() error  { return o.child.Open() }
func (o *rowsetPanicOp) Close() error { return o.child.Close() }
func (o *rowsetPanicOp) NextBatch() (*RowSet, error) {
	o.once.Do(func() {
		var none query.RelSet
		NewRowSet(none).Col(3)
	})
	return o.child.NextBatch()
}

// TestRowsetPanicBecomesTypedError: the legacy rowset panics surface as
// per-query *PanicError wrapping ErrInternal with the panic text and
// plan context preserved — and, the value being a plain string, the
// failure must not read as an injected fault.
func TestRowsetPanicBecomesTypedError(t *testing.T) {
	db, b, p := bigScanFixture(t, 4096)
	before := runtime.NumGoroutine()
	opts := Options{DOP: 4}
	opts.injectOp = func(_ *plan.Pipeline, _ int, _ bool, op PhysicalOperator) PhysicalOperator {
		return &rowsetPanicOp{child: op}
	}
	_, err := Run(db, b, p, opts)
	if err == nil {
		t.Fatal("rowset panic surfaced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, ErrInternal) {
		t.Fatalf("rowset panic not typed: %T %v", err, err)
	}
	if !strings.Contains(err.Error(), "no relation") {
		t.Fatalf("panic text lost: %v", err)
	}
	var f *faults.Fault
	if errors.As(err, &f) {
		t.Fatalf("string panic classified as injected fault: %v", err)
	}
	waitGoroutines(t, before)
}

// TestAuditDetectsViolations: the invariant checker reports held broker
// bytes and leftover spill files, and passes on clean state.
func TestAuditDetectsViolations(t *testing.T) {
	broker := mem.NewBroker(0)
	scheduler := sched.New(sched.Config{Slots: 2})
	dir := t.TempDir()
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: dir}); err != nil {
		t.Fatalf("clean state audited dirty: %v", err)
	}
	q := broker.NewQuery()
	r := q.Reserve()
	if !r.Grow(64, nil) {
		t.Fatal("unlimited broker denied a grow")
	}
	if err := os.WriteFile(dir+"/bfcbo-q1-leftover.spill", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: dir})
	if err == nil {
		t.Fatal("dirty state audited clean")
	}
	for _, want := range []string{"broker holds 64 bytes", "leftover spill"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("audit error missing %q: %v", want, err)
		}
	}
	q.Close()
	if err := os.Remove(dir + "/bfcbo-q1-leftover.spill"); err != nil {
		t.Fatal(err)
	}
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: dir}); err != nil {
		t.Fatalf("state audited dirty after cleanup: %v", err)
	}
}

// TestChaosSoak is the seeded soak of ISSUE 10: a serial warm-up phase
// with the invariant checker after every query, then 8 concurrent
// streams of the mixed TPC-H workload under a fault schedule hitting
// every site family at once — spill I/O errors and disk-full, spurious
// broker denials, injected worker errors and panics, slot delays, and
// refused admissions — with a memory budget small enough that every
// join spills. Every query must either succeed bit-identically to its
// fault-free baseline or fail with a typed error, and the shared state
// must audit clean once the storm passes.
func TestChaosSoak(t *testing.T) {
	ds := equivalenceDataset(t)
	t.Logf("chaos seed %d (fault schedule is deterministic per seed)", chaosSeed)

	type baseline struct {
		block *query.Block
		plan  *optimizer.Result
		want  []string
	}
	var base []baseline
	for _, num := range concurrentMix() {
		block, res := chaosPlan(t, num)
		_, clean, err := runRows(ds.DB, block, res.Plan, Options{DOP: 4})
		if err != nil {
			t.Fatalf("Q%d baseline: %v", num, err)
		}
		base = append(base, baseline{
			block: block, plan: res,
			want: canonicalRows(clean),
		})
	}

	before := runtime.NumGoroutine()
	broker := mem.NewBroker(64 << 10)
	scheduler := sched.New(sched.Config{Slots: 4, MaxConcurrent: 4})
	spillRoot := t.TempDir()
	inj, err := faults.Parse(fmt.Sprintf("seed=%d,spill.write=0.02,spill.read=0.02,spill.sync=0.01,"+
		"spill.remove=0.01,mem.deny=0.10,exec.error=0.002,exec.panic=0.001,sched.admit=0.05,sched.slot=0.01,"+
		"slotdelay=200us", chaosSeed))
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(inj)
	defer faults.Disable()

	runOne := func(b baseline) error {
		// The deadline bounds each run, queue wait included: a query
		// stalled this long fails the soak rather than hanging it.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, rows, err := runRowsContext(ctx, ds.DB, b.block, b.plan.Plan, Options{
			DOP: 4, Sched: scheduler, Broker: broker, SpillDir: spillRoot,
		})
		if err != nil {
			if !typedFailure(err) {
				return fmt.Errorf("untyped failure: %w", err)
			}
			return nil
		}
		got := canonicalRows(rows)
		if len(got) != len(b.want) {
			return fmt.Errorf("row count diverged under faults: got %d want %d", len(got), len(b.want))
		}
		for i := range got {
			if got[i] != b.want[i] {
				return fmt.Errorf("row %d diverged under faults", i)
			}
		}
		return nil
	}

	// Phase 1 — serial: the invariant checker must be clean after every
	// single query, fault-hit or not.
	for round := 0; round < 2; round++ {
		for i, b := range base {
			if err := runOne(b); err != nil {
				t.Fatalf("serial round %d query %d: %v", round, i, err)
			}
			if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
				t.Fatalf("serial round %d query %d: %v", round, i, err)
			}
		}
	}

	// Phase 2 — 8 concurrent streams, each running the full mix twice.
	const streams = 8
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i, b := range base {
					if err := runOne(b); err != nil {
						errs[s] = fmt.Errorf("stream %d round %d query %d: %w", s, round, i, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	faults.Disable()
	waitGoroutines(t, before)
	if err := Audit(AuditState{Broker: broker, Sched: scheduler, SpillDir: spillRoot}); err != nil {
		t.Fatalf("post-soak audit: %v", err)
	}
	st := inj.Stats()
	var fired uint64
	for _, s := range st {
		fired += s.Fired
	}
	t.Logf("injector fired %d faults across %d sites", fired, len(st))
	if fired == 0 {
		t.Fatal("chaos soak injected no faults — schedule too timid to prove anything")
	}
}
