package bfcbo

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"bfcbo/internal/obs"
	"bfcbo/internal/plan"
	"bfcbo/internal/vec"
)

// TestTraceSpanTreeDOP1 checks the lifecycle trace of a DOP-1 run: span
// starts are monotone (the Spans() contract), every pipeline span nests
// inside the query span, breaker finishes nest inside their pipeline, and
// the recorded pipeline set matches Output.Pipelines exactly. At DOP 1 the
// pipeline schedule is deterministic, so two runs must record the same
// span names.
func TestTraceSpanTreeDOP1(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace on output")
	}
	spans := out.Trace.Spans()
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	var query *obs.Span
	pipelines := map[int]obs.Span{} // tid -> pipeline span
	for i := range spans {
		s := spans[i]
		if s.Dur < 0 {
			t.Fatalf("span %q has negative duration %v", s.Name, s.Dur)
		}
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			t.Fatalf("span starts not monotone: %q at %v before %q at %v",
				s.Name, s.Start, spans[i-1].Name, spans[i-1].Start)
		}
		switch s.Cat {
		case "query":
			query = &spans[i]
		case "pipeline":
			pipelines[s.TID] = s
		}
	}
	if query == nil {
		t.Fatal("no query span")
	}
	if len(pipelines) != len(out.Pipelines) {
		t.Fatalf("trace has %d pipeline spans, output has %d pipelines",
			len(pipelines), len(out.Pipelines))
	}
	const eps = 2 * time.Millisecond
	within := func(inner, outer obs.Span) bool {
		return !inner.Start.Before(outer.Start.Add(-eps)) &&
			!inner.Start.Add(inner.Dur).After(outer.Start.Add(outer.Dur+eps))
	}
	for _, s := range spans {
		switch s.Cat {
		case "pipeline":
			if !within(s, *query) {
				t.Fatalf("pipeline span %q [%v +%v] escapes query span [%v +%v]",
					s.Name, s.Start, s.Dur, query.Start, query.Dur)
			}
		case "breaker", "phase":
			pl, ok := pipelines[s.TID]
			if !ok {
				t.Fatalf("%s span %q on tid %d has no pipeline span", s.Cat, s.Name, s.TID)
			}
			if !within(s, pl) {
				t.Fatalf("%s span %q [%v +%v] escapes pipeline span [%v +%v]",
					s.Cat, s.Name, s.Start, s.Dur, pl.Start, pl.Dur)
			}
		}
	}

	// Determinism: a second run at DOP 1 records the same span names.
	names := func(tr *obs.Trace) string {
		var ns []string
		for _, s := range tr.Spans() {
			ns = append(ns, s.Cat+"/"+s.Name)
		}
		return strings.Join(ns, "\n")
	}
	out2, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(out2.Trace), names(out.Trace); got != want {
		t.Fatalf("DOP-1 span tree not deterministic:\nrun 1:\n%s\nrun 2:\n%s", want, got)
	}

	// The trace exports as a loadable Chrome trace-event file.
	var buf bytes.Buffer
	if err := out.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsAgreeWithSchedStats cross-checks the engine registry against
// per-query ground truth: the queries counter and latency-histogram count
// match the number of runs (and so does the exposition's +Inf bucket), the slot-busy counter
// matches the summed SchedStat occupancy within 1%, the latency-histogram
// sum is positive and no larger than the summed per-query walls (the
// histogram's window is nested inside the engine's, so that holds by
// construction where a relative tolerance on a ~2.5 ms total did not), and
// the plan-time histogram holds exactly the reported planning times.
func TestMetricsAgreeWithSchedStats(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	var sumWall, sumBusy, sumPlan time.Duration
	var probeRows int64
	for i := 0; i < runs; i++ {
		out, err := e.Run(b, BFCBO)
		if err != nil {
			t.Fatal(err)
		}
		sumWall += out.ExecTime + out.Sched.QueueWait
		sumBusy += out.Sched.SlotBusy
		sumPlan += out.PlanningTime
		for _, st := range out.OpStats {
			if _, ok := st.Node.(*plan.Join); ok {
				probeRows += st.RowsIn
			}
		}
	}
	m := e.metrics
	if got := m.ProbeRows.Value(); got != probeRows || got == 0 {
		t.Fatalf("bfcbo_probe_rows_total = %d, hash probes read %d rows", got, probeRows)
	}
	if n := m.Queries.Value(); n != runs {
		t.Fatalf("bfcbo_queries_total = %d, want %d", n, runs)
	}
	lat := m.QueryLatency
	if lat.Count() != runs {
		t.Fatalf("latency histogram count = %d, want %d", lat.Count(), runs)
	}
	relErr := func(a, b float64) float64 { return math.Abs(a-b) / b * 100 }
	if busy := float64(m.SlotBusyNanos.Value()); relErr(busy, float64(sumBusy)) > 1 {
		t.Fatalf("slot-busy counter %.0fns vs summed SchedStat %dns: >1%% apart", busy, sumBusy)
	}
	if lat.Sum() <= 0 || lat.Sum() > sumWall.Seconds() {
		t.Fatalf("latency histogram sum %.6fs outside (0, summed walls %.6fs]",
			lat.Sum(), sumWall.Seconds())
	}
	// Planning time sits beside query latency: one observation per plan.
	if pl := m.PlanTime; pl.Count() != runs || relErr(pl.Sum(), sumPlan.Seconds()) > 0.001 {
		t.Fatalf("plan histogram count %d sum %.9fs, want %d and %.9fs", pl.Count(), pl.Sum(), runs, sumPlan.Seconds())
	}

	// The exposition parses under the minimal Prometheus checker, which
	// also holds every histogram's +Inf bucket to its count.
	var buf bytes.Buffer
	if err := e.MetricsRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	if err := obs.LintProm(&buf); err != nil {
		t.Fatalf("/metrics output fails lint: %v", err)
	}
	if got := promValue(t, prom, `bfcbo_query_latency_seconds_bucket{le="+Inf"}`); got != runs {
		t.Fatalf("latency +Inf bucket = %d, want %d", got, runs)
	}
	// Live gauges: an idle engine holds no slots but still reports capacity.
	if got := promValue(t, prom, "bfcbo_sched_slots"); got != 4 {
		t.Fatalf("bfcbo_sched_slots = %v, want 4", got)
	}
	if got := promValue(t, prom, "bfcbo_sched_slots_in_use"); got != 0 {
		t.Fatalf("bfcbo_sched_slots_in_use = %v on an idle engine", got)
	}
	if got := promValue(t, prom, "bfcbo_sched_finished_total"); got != runs {
		t.Fatalf("bfcbo_sched_finished_total = %d, want %d", got, runs)
	}
	// The scan-kernel gauge names the path this process runs.
	if got, want := promValue(t, prom, "bfcbo_scan_kernels_avx512") == 1, vec.AVX512(); got != want {
		t.Fatalf("bfcbo_scan_kernels_avx512 reads %v, vec.AVX512() is %v", got, want)
	}

	// bfcbo_probe_rows_total counts the hash-probe input rows, every
	// join's, which is what the run's Work.Probe counts too.
	before := m.ProbeRows.Value()
	out, err := e.Run(b, NoBF)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows == 0 {
		t.Fatal("the NoBF plan returned no rows")
	}
	got := m.ProbeRows.Value() - before
	if got != out.Work.Probe || got == 0 {
		t.Fatalf("the run added %d to bfcbo_probe_rows_total, its Work.Probe is %d", got, out.Work.Probe)
	}
}

// TestFlightRecorderOnEngine: every finished query lands in the recorder
// with its EXPLAIN ANALYZE and trace attached; a negative SlowQueryLog
// disables recording.
func TestFlightRecorderOnEngine(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, SlowQueryLog: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(b, BFCBO); err != nil {
			t.Fatal(err)
		}
	}
	rec := e.FlightRecorder()
	if rec == nil {
		t.Fatal("flight recorder disabled by default config")
	}
	if n := len(rec.Recent()); n != 2 {
		t.Fatalf("recorder has %d entries, want 2", n)
	}
	for _, qr := range rec.Recent() {
		if qr.Explain == nil {
			t.Fatalf("record %d has no EXPLAIN ANALYZE", qr.ID)
		}
		if qr.Trace == nil {
			t.Fatalf("record %d has no trace", qr.ID)
		}
		if qr.CostProfile != "engine" {
			t.Fatalf("record %d names cost profile %q, want the engine's", qr.ID, qr.CostProfile)
		}
		if qr.Latency <= 0 || qr.Rows <= 0 {
			t.Fatalf("degenerate record: %+v", qr)
		}
		if _, ok := rec.Find(qr.ID); !ok {
			t.Fatalf("Find(%d) missed a retained record", qr.ID)
		}
	}

	off, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 4, SlowQueryLog: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.FlightRecorder() != nil {
		t.Fatal("negative SlowQueryLog should disable the recorder")
	}
	if _, err := off.Run(b, BFCBO); err != nil {
		t.Fatal(err) // nil recorder must not panic the run path
	}
}

// TestRecordedRunRendersBothWays: a recorded run keeps no text, only what
// renders it. /debug/queries serializes the same EXPLAIN ANALYZE that
// Output.ExplainAnalyze renders, Output.Explain prefixes the plan to it,
// the record retains no row set, and a failed run has no "explain" key.
func TestRecordedRunRendersBothWays(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.003, Seed: 9, DOP: 2, SlowQueryLog: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TPCH(12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(b, BFCBO)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, b, BFCBO); err == nil {
		t.Fatal("a run under a canceled context succeeded")
	}

	recs := e.FlightRecorder().Recent()
	if len(recs) != 2 {
		t.Fatalf("recorder has %d entries, want 2", len(recs))
	}
	x, ok := recs[0].Explain.(explained)
	if !ok {
		t.Fatalf("recorded Explain is %T, want the engine's lazy renderer", recs[0].Explain)
	}
	if got, want := out.Explain(), x.p.Explain()+out.ExplainAnalyze(); got != want {
		t.Fatalf("Output.Explain is not the plan followed by ExplainAnalyze:\n%s\nwant:\n%s", got, want)
	}

	var buf bytes.Buffer
	if err := e.FlightRecorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Queries []map[string]any `json:"queries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil || len(dump.Queries) != 2 {
		t.Fatalf("/debug/queries payload: %v\n%s", err, buf.String())
	}
	for _, q := range dump.Queries {
		if _, failed := q["err"]; failed {
			if _, has := q["explain"]; has {
				t.Fatalf("failed run serializes an explain: %v", q)
			}
		} else if q["explain"] != out.ExplainAnalyze() {
			t.Fatalf("serialized explain differs from ExplainAnalyze:\n%v\nwant:\n%s", q["explain"], out.ExplainAnalyze())
		}
	}
}

// TestFlightRecorderMemPeakIsPerQuery: a record's MemPeak is that query's
// own high-water mark, not the broker's lifetime one — a two-small-table
// block run after Q9 must not inherit Q9's footprint.
func TestFlightRecorderMemPeakIsPerQuery(t *testing.T) {
	e, err := Open(Config{ScaleFactor: 0.005, Seed: 9, DOP: 2, SlowQueryLog: 4})
	if err != nil {
		t.Fatal(err)
	}
	q9, err := e.TPCH(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(q9, BFCBO); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunSQL(`SELECT * FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey`, BFCBO); err != nil {
		t.Fatal(err)
	}
	recs := e.FlightRecorder().Recent()
	if len(recs) != 2 {
		t.Fatalf("recorder has %d entries, want 2", len(recs))
	}
	big, small, lifetime := recs[0].MemPeak, recs[1].MemPeak, e.MemoryBroker().Peak()
	if small <= 0 || small >= big {
		t.Fatalf("nation ⋈ region peaked at %d B, Q9 at %d B: want 0 < small < big", small, big)
	}
	if big > lifetime {
		t.Fatalf("Q9's peak %d B exceeds the broker's lifetime peak %d B", big, lifetime)
	}
}
