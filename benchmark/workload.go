package main

import (
	"fmt"
	"time"
)

// config is one run's settings; everything a workload generates comes from
// seed, everything the dataset holds from dataSeed.
type config struct {
	workload string
	seed     uint64
	dataSeed uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny scale, for the tests
	clients  int    // C = min(nproc, 4): GOMAXPROCS, engine DOP and client cap
	outDir   string // scratch inside the checkout: spill files, trace files
}

// sf is the TPC-H scale factor of the dataset workloads. Reports are only
// comparable at one scale, so it is not a flag.
func (c config) sf() float64 {
	if c.smoke {
		return 0.01
	}
	return 0.2
}

// setupReps is how many times an untraced run sets up; setup_s is their
// median.
func (c config) setupReps() int {
	if c.smoke {
		return 1
	}
	return 3
}

// workload is one of the four named workloads. setUp generates the inputs
// from the seed, opens what the workload needs, computes the reference
// results and warms up; measure is the untraced run behind the end-to-end
// metrics; traced is the staged, span-recording run behind the per-layer
// metrics.
type workload interface {
	setUp() error
	close()
	digest() string
	measure(d time.Duration) (*samples, error)
	traced(d time.Duration, tr *tracer) (layerValues, *samples, error)
}

// layerValues maps per-layer metric names to values; names absent from it
// read 0.
type layerValues map[string]float64

var workloadWhy = []struct{ name, why string }{
	{"tpch_power", "1 client, the 22 TPC-H blocks end to end under BF-CBO at SF 0.2, memory unlimited: exec, bloom and hashtab do the work, the optimizer about 1 %"},
	{"tpch_spill", "same engine under a 16 MiB budget over the 8 join-heavy blocks: the same exec join code through mem denials, grace partitions and spill files"},
	{"plan_heavy", "24 catalog-only join graphs (chains, stars, snowflakes, shared-key cliques), one optimizer.Optimize per op, nothing executed: only the optimizer can move it"},
	{"sql_streams", "C closed-loop clients replay 200 generated short SPJ statements on one shared engine: parse, plan, admission, slot sharing and recording weigh most here"},
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "tpch_power", "tpch_spill", "sql_streams":
		return newEngineWorkload(cfg), nil
	case "plan_heavy":
		return &planWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// samples is what a measured run collected: every correct operation's wall
// by operation, one summed wall per client and pass, one wall-clock time and
// one resident-set peak per pass, and the failure account. An operation fails
// when it returns an error or a result that differs from the reference.
type samples struct {
	byOp       [][]float64 // [op index] -> walls of its correct runs, ms
	passMS     []float64   // summed operation walls of each client's pass
	passWallMS []float64   // wall-clock time of each pass, all clients side by side
	passRSSMiB []float64   // peak resident set between pass ends
	clients    int         // closed-loop clients that ran a pass side by side
	attempted  int
	failed     int
	problems   []string // the first few failures, for the log
}

func newSamples(ops, clients int) *samples {
	return &samples{byOp: make([][]float64, ops), clients: clients}
}

func (s *samples) record(oi int, name string, wallMS float64, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, name+": "+err.Error())
		}
		return
	}
	s.byOp[oi] = append(s.byOp[oi], wallMS)
}

// endPass records a completed pass: each client's summed operation walls,
// the wall-clock time from the first client's start to the last one's end,
// the benchmark's own work between operations included, and the peak
// resident set since the pass before it ended.
func (s *samples) endPass(clientMS []float64, wall time.Duration) {
	s.passMS = append(s.passMS, clientMS...)
	s.passWallMS = append(s.passWallMS, ms(wall))
	s.passRSSMiB = append(s.passRSSMiB, peakRSSMiB())
	resetPeakRSS()
}

// scale multiplies every time in s by f; the resident-set peaks stay.
func (s *samples) scale(f float64) {
	times := append([][]float64{s.passMS, s.passWallMS}, s.byOp...)
	for _, vs := range times {
		for i := range vs {
			vs[i] *= f
		}
	}
}

func (s *samples) merge(o *samples) {
	for oi, vs := range o.byOp {
		s.byOp[oi] = append(s.byOp[oi], vs...)
	}
	s.passMS = append(s.passMS, o.passMS...)
	s.passWallMS = append(s.passWallMS, o.passWallMS...)
	s.passRSSMiB = append(s.passRSSMiB, o.passRSSMiB...)
	s.attempted += o.attempted
	s.failed += o.failed
	for _, p := range o.problems {
		if len(s.problems) < 5 {
			s.problems = append(s.problems, p)
		}
	}
}

// walls returns every correct operation's wall, all operations together.
func (s *samples) walls() []float64 {
	var out []float64
	for _, vs := range s.byOp {
		out = append(out, vs...)
	}
	return out
}

// measurePasses is the untraced run: it calls pass with cycle 0, 1, ... until
// d has elapsed, whole passes only, and returns their samples together. The
// host probe runs before the first pass and after every one, and a pass's
// times are rescaled by its two neighbouring probe readings to the reference
// host speed before they are merged (probe.go says why).
func measurePasses(d time.Duration, ops, clients int, pass func(cycle int) *samples) *samples {
	all := newSamples(ops, clients)
	start := time.Now()
	before := hostProbe()
	for cycle := 0; cycle == 0 || time.Since(start) < d; cycle++ {
		p := pass(cycle)
		after := hostProbe()
		p.scale(probeRefMS / ((before + after) / 2))
		all.merge(p)
		before = after
	}
	return all
}

// endToEnd derives the metrics of an untraced run, setup_s aside, from times
// already rescaled to the reference host speed. Every pass runs the same
// operations, so an operation's typical wall is the median over its runs:
// op_ms_p50 and op_ms_p90 are the median and the 90th percentile, over the
// operations, of that median (the percentile reads the mix's heavy
// operations, not the host's worst moments); pass_ms is the median summed
// wall of a client's pass, ops_per_s the operations of one pass of every
// client over the median wall-clock time of a pass, and peak_rss_mb the
// median over the passes of the peak resident set while the pass ran.
func (s *samples) endToEnd() map[string]float64 {
	typical := make([]float64, len(s.byOp))
	for oi, vs := range s.byOp {
		typical[oi] = median(vs)
	}
	return map[string]float64{
		"op_ms_p50":   median(typical),
		"op_ms_p90":   quantile(typical, 0.9),
		"pass_ms":     median(s.passMS),
		"ops_per_s":   ratio(float64(s.clients*len(typical)), median(s.passWallMS)/1e3),
		"peak_rss_mb": median(s.passRSSMiB),
	}
}

// series collects per-pass values by metric name; the reported value is the
// median over the traced passes.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) medians(into layerValues) {
	for name, vs := range s {
		into[name] = median(vs)
	}
}

// counts holds the exact per-pass counts of each traced pass and fails the
// run when a later pass disagrees with the first.
type counts struct {
	first layerValues
}

func (c *counts) check(pass layerValues) error {
	if c.first == nil {
		c.first = pass
		return nil
	}
	for _, name := range exactCounts {
		if pass[name] != c.first[name] {
			return fmt.Errorf("count %s differs between passes: %v then %v", name, c.first[name], pass[name])
		}
	}
	return nil
}
