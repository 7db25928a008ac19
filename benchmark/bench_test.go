package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"bfcbo"
	"bfcbo/internal/obs"
	"bfcbo/internal/sqlparser"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, dataSeed: 0x7c152025, seconds: 0.2, trace: trace,
		smoke: true, clients: min(runtime.NumCPU(), 4), outDir: t.TempDir(),
	}
}

// TestSpecMatchesCode holds BENCHMARK.json and the metric and workload
// tables in the code in step, name by name and in order.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadWhy))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadWhy[i].name || w.Why != workloadWhy[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / code %q", i, w.Name, workloadWhy[i].name)
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, c := range []struct {
		what      string
		spec, def []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.def) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.spec), len(c.def))
		}
		for i := range c.spec {
			if c.spec[i] != c.def[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.what, i, c.spec[i], c.def[i])
			}
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %+v: bad or repeated name, or bad unit", d)
		}
		seen[d.Name] = true
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %s is not a per-layer metric", c)
		}
	}
}

// TestSmoke runs all four workloads at smoke scale, untraced and traced, and
// checks the report's shape: every metric of BENCHMARK.json exactly once
// with its unit, nothing failed, the trace file loads, the residual is
// reported. It asserts no timing.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadWhy {
		for _, trace := range []bool{false, true} {
			res, info, err := runOne(smokeConfig(t, wl.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", wl.name, trace, res.Correct, res.Failed, res.Attempted, info.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", wl.name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.Name, m.Value)
				}
			}
			if len(info.Digest) != 16 {
				t.Errorf("%s: digest %q", wl.name, info.Digest)
			}
			if !trace {
				continue
			}
			data, err := os.ReadFile(info.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChrome(data); err != nil {
				t.Errorf("%s: %v", wl.name, err)
			}
			if _, ok := res.Metrics["trace.residual_share"]; !ok {
				t.Errorf("%s: trace.residual_share not reported", wl.name)
			}
			single := wl.name != "sql_streams"
			if q := res.Metrics["sched.queue_wait_ms"].Value; single && q != 0 {
				t.Errorf("%s: one client waited %v ms in the admission queue", wl.name, q)
			}
			spilled := res.Metrics["spill.bytes_written"].Value
			if (wl.name == "tpch_spill") != (spilled > 0) {
				t.Errorf("%s: spill.bytes_written = %v", wl.name, spilled)
			}
		}
	}
}

// TestSeedDeterminesWorkload: the same seed generates the same operations,
// another seed other ones, for every workload.
func TestSeedDeterminesWorkload(t *testing.T) {
	digest := func(workload string, seed uint64) string {
		cfg := smokeConfig(t, workload, false)
		cfg.seed = seed
		w, err := newWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setUp(); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return w.digest()
	}
	for _, wl := range workloadWhy {
		a, again, b := digest(wl.name, 1), digest(wl.name, 1), digest(wl.name, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", wl.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", wl.name, a)
		}
	}
}

// TestGeneratedStatements: every pooled statement parses and validates
// (which includes a connected join graph), joins 2-5 distinct tables, has a
// literal predicate, and lineitem is in at most a fifth of the pool.
func TestGeneratedStatements(t *testing.T) {
	eng, err := bfcbo.Open(bfcbo.Config{ScaleFactor: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		stmts := genStatements(seed)
		if len(stmts) != 200 {
			t.Fatalf("seed %d: %d statements", seed, len(stmts))
		}
		lineitem := 0
		for _, s := range stmts {
			b, err := sqlparser.Parse(eng.Dataset().Schema, s)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, s)
			}
			if n := len(b.Relations); n < 2 || n > 5 || len(b.Clauses) != n-1 {
				t.Errorf("seed %d: %d relations, %d clauses: %s", seed, n, len(b.Clauses), s)
			}
			tables := map[string]bool{}
			preds := 0
			for _, r := range b.Relations {
				tables[r.Table.Name] = true
				if r.Pred != nil {
					preds++
				}
			}
			if len(tables) != len(b.Relations) || preds == 0 {
				t.Errorf("seed %d: repeated table or no predicate: %s", seed, s)
			}
			if strings.Contains(s, "lineitem") {
				lineitem++
			}
		}
		if 5*lineitem > len(stmts) {
			t.Errorf("seed %d: lineitem in %d of %d statements", seed, lineitem, len(stmts))
		}
	}
}

// TestGeneratedGraphs: every plan_heavy graph validates; a clique's
// transitive closure is complete and a chain's or star's adds nothing.
func TestGeneratedGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for i, g := range genGraphs(seed) {
			b := g.block()
			if err := b.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, g.name, err)
			}
			n := len(b.Relations)
			if n != graphShapes[i].n {
				t.Errorf("seed %d %s: %d relations", seed, g.name, n)
			}
			b.AddTransitiveClauses()
			want := n - 1
			if graphShapes[i].kind == "clique" {
				want = n * (n - 1) / 2
			}
			if len(b.Clauses) != want {
				t.Errorf("seed %d %s: %d clauses after closure, want %d", seed, g.name, len(b.Clauses), want)
			}
		}
	}
}

// TestQuartilesMatchPython: the values are statistics.quantiles(data, n=4)
// from Python 3, which extrapolates below four values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 2, 7, 4, 9}, 3, 9.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{12.5, 11, 14, 13, 12, 15.5, 11.5, 12.2, 13.3, 40}, 11.875, 14.375},
	} {
		if q1, q3 := quartiles(c.data); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeSet is a set report in which every workload reads 100 on every
// end-to-end metric but pass_ms, and 7 on every exact count but plans_kept.
func fakeSet(seed uint64, digest string, passMS, plansKept float64) setReport {
	set := setReport{Seed: seed, Workloads: map[string]*workloadReport{}}
	for _, wl := range workloadWhy {
		wr := &workloadReport{
			Info:     runInfo{Workload: wl.name, Digest: digest},
			EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricValue{100, d.Unit}
		}
		wr.EndToEnd["pass_ms"] = metricValue{passMS, "ms"}
		for _, c := range exactCounts {
			wr.PerLayer[c] = metricValue{7, "count"}
		}
		wr.PerLayer["optimizer.plans_kept"] = metricValue{plansKept, "count"}
		set.Workloads[wl.name] = wr
	}
	return set
}

func TestCompareSets(t *testing.T) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = 0.10
	}
	for _, c := range []struct {
		name      string
		a, b      setReport
		bounds    map[string]float64
		complains string // "" = the sets agree; else every complaint contains it
	}{
		{"within the bound", fakeSet(1, "d1", 100, 5), fakeSet(1, "d1", 104, 5), bounds, ""},
		{"beyond the bound", fakeSet(1, "d1", 100, 5), fakeSet(1, "d1", 110, 5), bounds, "pass_ms: spread 0.1429 over bound 0.10"},
		{"count differs on one seed", fakeSet(1, "d1", 100, 5), fakeSet(1, "d1", 100, 6), bounds, "optimizer.plans_kept: 5 then 6"},
		{"count differs across seeds", fakeSet(1, "d1", 100, 5), fakeSet(2, "d2", 100, 6), bounds, ""},
		{"digest differs on one seed", fakeSet(1, "d1", 100, 5), fakeSet(1, "dx", 100, 5), bounds, "workload digest d1 then dx"},
		{"metric without a bound", fakeSet(1, "d1", 100, 5), fakeSet(1, "d1", 100, 5), map[string]float64{"setup_s": 0.25}, "no bound in BENCHMARK.json"},
	} {
		rows, bad := compareSets([]setReport{c.a, c.b}, c.bounds)
		if len(rows) != len(workloadWhy)*len(endToEnd) {
			t.Errorf("%s: %d rows", c.name, len(rows))
		}
		if (c.complains == "") != (len(bad) == 0) {
			t.Errorf("%s: complaints %q", c.name, bad)
		}
		for _, b := range bad {
			if !strings.Contains(b, c.complains) {
				t.Errorf("%s: complaint %q lacks %q", c.name, b, c.complains)
			}
		}
	}
	// Two values a and b spread by 1.5 |a-b| over their mean, as in Python.
	rows, _ := compareSets([]setReport{fakeSet(1, "d1", 100, 5), fakeSet(1, "d1", 104, 5)}, bounds)
	for _, r := range rows {
		want := 0.0
		if r.Metric == "pass_ms" {
			want = 1.5 * 4 / 102
		}
		if math.Abs(r.Spread-want) > 1e-12 || r.Bound != 0.10 {
			t.Errorf("%s %s: spread %v bound %v, want %v and 0.10", r.Workload, r.Metric, r.Spread, r.Bound, want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "workload x  digest d\n  setup_s 1 s\n" +
		`info: {"workload":"plan_heavy","workload_digest":"00ff","op_samples":48,"passes":2}` + "\n" +
		`{"correct":true,"attempted":48,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}` + "\n"
	res, info, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 48 || res.Metrics["setup_s"] != (metricValue{0.5, "s"}) {
		t.Errorf("result %+v", res)
	}
	if info.Workload != "plan_heavy" || info.Digest != "00ff" || info.Passes != 2 {
		t.Errorf("info %+v", info)
	}
	for _, broken := range []string{"", "info: {}\nnot json\n", `{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n"} {
		if _, _, err := parseRun([]byte(broken)); err == nil {
			t.Errorf("parseRun(%q) accepted", broken)
		}
	}
}

// TestEndToEndFromSamples: scale rescales every time and leaves the memory
// readings, and the metrics are the medians the README defines.
func TestEndToEndFromSamples(t *testing.T) {
	s := newSamples(2, 1)
	s.byOp = [][]float64{{1, 3, 2}, {10, 30, 20}}
	s.passMS = []float64{11, 33, 22}
	s.passWallMS = []float64{12, 34, 23}
	s.passRSSMiB = []float64{5, 7, 6}
	s.scale(2)
	got := s.endToEnd()
	for name, want := range map[string]float64{
		"op_ms_p50": 22, "op_ms_p90": 4 + 0.9*36, "pass_ms": 44, "ops_per_s": 2 / 0.046, "peak_rss_mb": 6,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}
