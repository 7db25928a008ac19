package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same metric.
	if reg.NewCounter("c_total", "dup") != c {
		t.Fatal("re-registering a counter returned a new instance")
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-16.5) > 1e-9 {
		t.Fatalf("sum = %g, want 16.5", h.Sum())
	}
	prom := promText(t, reg)
	for _, want := range []string{ // cumulative: ≤1, ≤2, ≤4, +Inf
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(prom, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, prom)
		}
	}
	// Median falls in the (1,2] bucket.
	if q := h.quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want in (1,2]", q)
	}
}

// promText renders reg's /metrics exposition.
func promText(t *testing.T, reg *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestGaugeAndCounterFuncs(t *testing.T) {
	reg := NewRegistry()
	live := 3.0
	reg.NewGaugeFunc("live", "live state", func() float64 { return live })
	cum := int64(7)
	reg.NewCounterFunc("cum_total", "cumulative elsewhere", func() int64 { return cum })
	if prom := promText(t, reg); !strings.Contains(prom, "\nlive 3\n") || !strings.Contains(prom, "\ncum_total 7\n") {
		t.Fatalf("func metrics missing from the exposition:\n%s", prom)
	}
	// Rebinding (second engine in one process) wins.
	reg.NewGaugeFunc("live", "live state", func() float64 { return 9 })
	if prom := promText(t, reg); !strings.Contains(prom, "\nlive 9\n") {
		t.Fatalf("rebound gauge func not exposed:\n%s", prom)
	}
}

func TestWritePromLints(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	reg.NewGaugeFunc("bfcbo_worker_slots_in_use", "live slots", func() float64 { return 2 })
	m.ObserveQuery(25*time.Millisecond, time.Millisecond, 0, 80*time.Millisecond, 42, false)
	m.SpillBytes.Add(1 << 20)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintProm(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"bfcbo_queries_total 1",
		"bfcbo_rows_out_total 42",
		`bfcbo_query_latency_seconds_bucket{le="+Inf"} 1`,
		"bfcbo_query_latency_seconds_count 1",
		"bfcbo_worker_slots_in_use 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "foo_total 3\n",
		"negative counter":  "# TYPE foo_total counter\nfoo_total -1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf":      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"bad name":          "# TYPE 9bad counter\n9bad 1\n",
		"bad value":         "# TYPE foo counter\nfoo xyz\n",
		"unquoted label":    "# TYPE h histogram\nh_bucket{le=1} 5\n",
		"descending bounds": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n",
	}
	for name, text := range cases {
		if err := LintProm(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition", name)
		}
	}
	if err := LintProm(strings.NewReader(
		"# HELP h help text\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 7.5\nh_count 5\n")); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

func TestFlightRecorderEviction(t *testing.T) {
	fr := NewFlightRecorder(3)
	for i := 1; i <= 5; i++ {
		fr.Record(QueryRecord{ID: int64(i), Latency: time.Duration(i) * time.Millisecond})
	}
	// FIFO ring of 3: records 1 and 2 evicted, 3..5 retained oldest-first.
	got := fr.Recent()
	if len(got) != 3 || got[0].ID != 3 || got[1].ID != 4 || got[2].ID != 5 {
		t.Fatalf("recent after wraparound = %v", ids(got))
	}
	// Worst sorts by latency descending.
	worst := fr.Worst()
	if worst[0].ID != 5 || worst[2].ID != 3 {
		t.Fatalf("worst order = %v", ids(worst))
	}
	if _, ok := fr.Find(1); ok {
		t.Fatal("evicted record still findable")
	}
	if rec, ok := fr.Find(4); !ok || rec.Latency != 4*time.Millisecond {
		t.Fatal("retained record not findable")
	}
}

// BenchmarkFlightRecord gates admitting one run into a full ring: the
// record is copied into the slot it evicts — 0 allocs/op (checked in CI).
func BenchmarkFlightRecord(b *testing.B) {
	fr := NewFlightRecorder(32)
	rec := QueryRecord{
		ID: 1, Label: "q12", Mode: "BF-CBO", Fingerprint: "000000000000feed",
		Latency: 5 * time.Millisecond, Rows: 100, Trace: NewTrace(4),
	}
	for i := 0; i < 32; i++ {
		fr.Record(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(rec)
	}
}

func ids(recs []QueryRecord) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func TestTraceChromeExport(t *testing.T) {
	tr := NewTrace(8)
	tr.QueryID = 7
	tr.Label = "Q21"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.Add("queue", "sched", 0, t0, 2*time.Millisecond)
	tr.Add("query", "query", 0, t0.Add(2*time.Millisecond), 50*time.Millisecond)
	tr.Add("pipeline 0", "pipeline", 1, t0.Add(2*time.Millisecond), 30*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, buf.String())
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int64   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	// metadata event + 3 spans, all pid 7, epoch-relative timestamps.
	if len(f.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		if ev.PID != 7 {
			t.Fatalf("event %s pid = %d, want 7", ev.Name, ev.PID)
		}
	}
	if f.TraceEvents[1].TS != 0 {
		t.Fatalf("earliest span ts = %g, want 0", f.TraceEvents[1].TS)
	}
	if f.TraceEvents[2].TS != 2000 { // 2ms after epoch in µs
		t.Fatalf("query span ts = %g, want 2000", f.TraceEvents[2].TS)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	bad := []string{
		`{"notTraceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,             // no name
		`{"traceEvents":[{"name":"a","ph":"X","dur":1}]}`,         // no ts
		`{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":1}]}`, // negative ts
		`{"traceEvents":[{"name":"a","ph":"?","ts":0,"dur":1}]}`,  // unknown phase
		`not json`,
	}
	for _, tc := range bad {
		if err := ValidateChrome([]byte(tc)); err == nil {
			t.Errorf("accepted invalid trace %s", tc)
		}
	}
	if err := ValidateChrome([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Fatalf("rejected an empty but well-formed trace: %v", err)
	}
	if err := ValidateChrome([]byte(`{"cells":[]}`)); err == nil {
		t.Fatal("accepted a JSON object that is not a trace")
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	NewMetrics(reg).Queries.Inc()
	fr := NewFlightRecorder(4)
	tr := NewTrace(4)
	tr.QueryID = 3
	tr.Add("query", "query", 0, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	fr.Record(QueryRecord{ID: 3, Label: "Q1", Latency: time.Millisecond, Trace: tr})
	h := &Handler{Registry: reg, Recorder: fr}

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/metrics"); w.Code != 200 {
		t.Fatalf("/metrics -> %d", w.Code)
	} else if err := LintProm(w.Body); err != nil {
		t.Fatalf("/metrics lint: %v", err)
	}
	if w := get("/debug/queries"); w.Code != 200 {
		t.Fatalf("/debug/queries -> %d", w.Code)
	} else {
		var dump struct {
			Queries []QueryRecord `json:"queries"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil || len(dump.Queries) != 1 {
			t.Fatalf("/debug/queries payload: %v %s", err, w.Body.String())
		}
	}
	if w := get("/debug/trace/3"); w.Code != 200 {
		t.Fatalf("/debug/trace/3 -> %d", w.Code)
	} else if err := ValidateChrome(w.Body.Bytes()); err != nil {
		t.Fatalf("/debug/trace/3 invalid: %v", err)
	}
	if w := get("/debug/trace/99"); w.Code != 404 {
		t.Fatalf("/debug/trace/99 -> %d, want 404", w.Code)
	}
	if w := get("/nope"); w.Code != 404 {
		t.Fatalf("/nope -> %d, want 404", w.Code)
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c_total", "")
	h := reg.NewHistogram("h", "", []float64{1, 10})
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("histogram sum = %g, want 4000", h.Sum())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.NewCounter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("no increments")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.NewHistogram("bench_hist", "", LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) * 0.001)
	}
	if h.Count() == 0 {
		b.Fatal("no observations")
	}
}

func BenchmarkTraceAdd(b *testing.B) {
	tr := NewTrace(b.N + 1)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add("pipeline", "pipeline", i, t0, time.Millisecond)
	}
	if len(tr.Spans()) == 0 {
		b.Fatal("no spans")
	}
}

func TestMetricsObserveQueryError(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	m.ObserveQuery(time.Millisecond, 0, 0, 0, 0, true)
	if n := m.QueryErrors.Value(); n != 1 {
		t.Fatalf("errors counted %d times, want 1", n)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("q", "", []float64{1, 2})
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// All mass in +Inf bucket reports the top bound.
	for i := 0; i < 3; i++ {
		h.Observe(5)
	}
	if q := h.quantile(0.99); q != 2 {
		t.Fatalf("+Inf quantile = %g, want 2", q)
	}
}

func ExampleRegistry_WriteProm() {
	reg := NewRegistry()
	reg.NewCounter("example_total", "An example counter.").Add(3)
	var buf bytes.Buffer
	_ = reg.WriteProm(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP example_total An example counter.
	// # TYPE example_total counter
	// example_total 3
}
