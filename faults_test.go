package bfcbo

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bfcbo/internal/exec"
	"bfcbo/internal/faults"
)

// Engine-level robustness: an injected fault surfaces as the typed
// *faults.Fault after one attempt, the post-query invariant audit finds
// the engine clean, and the fault/error series on /metrics count it.

// TestEngineInjectedFaultTyped: with a 100%-probability injected worker
// error the one attempt fails, so the engine must surface the typed fault,
// count it on /metrics — and the invariant audit must still find the
// engine spotless, and a run after the injector is removed healthy.
func TestEngineInjectedFaultTyped(t *testing.T) {
	spillDir := t.TempDir()
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, SpillDir: spillDir})
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
		t.Fatal("the injected error fires on every morsel, yet Run returned nil")
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.ExecError {
		t.Fatalf("injected fault surfaced as an untyped error: %v", err)
	}
	if err := exec.Audit(exec.AuditState{
		Broker: e.MemoryBroker(), Sched: e.Scheduler(), SpillDir: spillDir,
	}); err != nil {
		t.Fatalf("post-fault audit: %v", err)
	}

	// Scrape while the injector is still installed — the injected-fault
	// series is a counter func over the live injector.
	var buf bytes.Buffer
	if err := e.MetricsRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	if !strings.Contains(prom, "bfcbo_query_errors_total 1") {
		t.Errorf("want 1 failed query:\n%s", grepProm(prom, "errors|faults|panics"))
	}
	// Concurrent workers may each fire one before the stop flag
	// propagates, so the exact count varies.
	if v := promValue(t, prom, "bfcbo_faults_injected_total"); v < 1 {
		t.Errorf("faults injected = %d, want >= 1", v)
	}

	faults.Disable()
	if out, err := e.Run(b, BFCBO); err != nil || out.Rows == 0 {
		t.Fatalf("engine unhealthy after chaos: rows=%v err=%v", out, err)
	}
}

// TestEngineAdmitFaultNoRetryWithoutPolicy: an injected admission refusal
// surfaces the typed sched.admit fault from the query's one attempt, and
// the one record of that run reaches the flight recorder and the workload
// history alike: labeled with the block, failed, one error in one run.
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
	recs := e.FlightRecorder().Recent()
	if len(recs) != 1 || recs[0].Label != b.Name || recs[0].Err == "" {
		t.Fatalf("refused run's recorder entries: %+v, want one labeled %q with Err set", recs, b.Name)
	}
	shapes := e.Workload().Snapshot()
	if len(shapes) != 1 || shapes[0].Fingerprint != recs[0].Fingerprint ||
		shapes[0].Label != b.Name || shapes[0].Count != 1 || shapes[0].Errors != 1 {
		t.Fatalf("refused run's workload shapes: %+v, want %s labeled %q with Count 1 and Errors 1",
			shapes, recs[0].Fingerprint, b.Name)
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
