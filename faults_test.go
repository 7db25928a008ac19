package bfcbo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bfcbo/internal/exec"
	"bfcbo/internal/faults"
)

// Engine-level robustness: the retry path's transient/deterministic
// classification and backoff schedule, the Config.Faults installer, the
// post-query invariant audit, and the fault/recovery metric series on
// /metrics.

func TestTransientErrClassification(t *testing.T) {
	ferr := &faults.Fault{Site: faults.ExecError, Seq: 3}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("exec: unsupported hash join type JoinType(99)"), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ferr, true},
		// A contained panic is retryable only when the panic value was an
		// injected fault; a string panic (the rowset paths) is
		// deterministic and must not be retried.
		{&exec.PanicError{Query: "q1", Where: "worker", Value: ferr}, true},
		{&exec.PanicError{Query: "q1", Where: "worker", Value: "no relation 3 in row set"}, false},
	}
	for i, c := range cases {
		if got := transientErr(c.err); got != c.want {
			t.Errorf("case %d (%v): transient = %v, want %v", i, c.err, got, c.want)
		}
	}
}

// TestRetryBackoff: the schedule starts at 10ms, doubles per attempt up
// to a 2s cap, and adds up to 50% jitter.
func TestRetryBackoff(t *testing.T) {
	for n, want := range []time.Duration{10, 20, 40, 80, 160, 320, 640, 1280, 2000, 2000, 2000} {
		want *= time.Millisecond
		for trial := 0; trial < 16; trial++ {
			d := backoff(n)
			if d < want || d > want+want/2 {
				t.Fatalf("backoff(%d) = %s, want [%s, %s]", n, d, want, want+want/2)
			}
		}
	}
}

// TestEngineRetriesExhaustTyped: with a 100%-probability injected worker
// error every attempt fails, so the engine must burn exactly MaxRetries
// re-attempts, surface the typed fault, count the retries on /metrics —
// and the invariant audit must still find the engine spotless.
func TestEngineRetriesExhaustTyped(t *testing.T) {
	spillDir := t.TempDir()
	e, err := Open(Config{
		ScaleFactor: 0.003, Seed: 9, DOP: 4, SpillDir: spillDir,
		MaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(11, map[faults.Site]float64{faults.ExecError: 1}))
	defer faults.Disable()

	b, err := e.TPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(b, BFCBO)
	if err == nil {
		t.Fatal("every attempt fails, yet Run returned nil")
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.ExecError {
		t.Fatalf("exhausted retries surfaced an untyped error: %v", err)
	}
	if err := exec.Audit(exec.AuditState{
		Broker: e.MemoryBroker(), Sched: e.Scheduler(), SpillDir: spillDir,
	}); err != nil {
		t.Fatalf("post-retry audit: %v", err)
	}

	// Scrape while the injector is still installed — the injected-fault
	// series is a counter func over the live injector.
	var buf bytes.Buffer
	if err := e.MetricsRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	if !strings.Contains(prom, "bfcbo_query_retries_total 2") {
		t.Errorf("want 2 retries:\n%s", grepProm(prom, "retries|faults|panics"))
	}
	// At least one fault per attempt (concurrent workers may each fire
	// one before the stop flag propagates, so the exact count varies).
	if v := promValue(t, prom, "bfcbo_faults_injected_total"); v < 3 {
		t.Errorf("faults injected = %d, want >= 3 (one per attempt)", v)
	}

	faults.Disable()
	if out, err := e.Run(b, BFCBO); err != nil || out.Rows == 0 {
		t.Fatalf("engine unhealthy after chaos: rows=%v err=%v", out, err)
	}
}

// TestEngineAdmitFaultNoRetryWithoutPolicy: an injected admission
// refusal surfaces the typed sched.admit fault; with MaxRetries unset
// the engine gives up immediately and retries nothing.
func TestEngineAdmitFaultNoRetryWithoutPolicy(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(5, map[faults.Site]float64{faults.SchedAdmit: 1}))
	defer faults.Disable()

	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(b, BFCBO)
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.SchedAdmit {
		t.Fatalf("injected admission refusal: err = %v, want the sched.admit fault", err)
	}

	var buf bytes.Buffer
	if err := e.MetricsRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	if want := "bfcbo_query_retries_total 0"; !strings.Contains(prom, want) {
		t.Errorf("metrics missing %q:\n%s", want, grepProm(prom, "retries"))
	}
}

// TestConfigFaultsSpec: Config.Faults installs the process-wide injector
// and bad specs fail Open.
func TestConfigFaultsSpec(t *testing.T) {
	defer faults.Disable()
	if _, err := Open(Config{ScaleFactor: 0.003, Faults: "seed=1,nonsense=0.5"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 2,
		Faults: "seed=1,exec.error=1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(b, BFCBO)
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("spec-installed injector fired nothing: %v", err)
	}
}

// promValue extracts one counter's value from a Prometheus exposition.
func promValue(t *testing.T, prom, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(prom, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && !strings.HasPrefix(line, "#") {
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// grepProm filters a Prometheus exposition to lines matching any of the
// |-separated substrings, for readable test failures.
func grepProm(prom, pat string) string {
	var out []string
	for _, line := range strings.Split(prom, "\n") {
		for _, p := range strings.Split(pat, "|") {
			if strings.Contains(line, p) {
				out = append(out, line)
				break
			}
		}
	}
	return strings.Join(out, "\n")
}
