// Command benchmark is bfcbo's one benchmark: four named workloads, six
// end-to-end metrics measured with tracing off, and a staged, span-recording
// run that attributes the wall to the engine's layers. See README.md.
//
// One invocation with -workload measures one workload in this process and
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without -workload it runs every
// workload (each in a child process of its own, both untraced and traced)
// and writes one report; -aa N repeats that N times and compares the sets.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is what a run adds for the report: printed on the line before the
// result, prefixed "info: ".
type runInfo struct {
	Workload string   `json:"workload"`
	Digest   string   `json:"workload_digest"`
	Samples  int      `json:"op_samples"`
	Passes   int      `json:"passes"`
	Problems []string `json:"problems,omitempty"`
	Trace    string   `json:"trace_file,omitempty"`
}

func main() {
	var cfg config
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload to measure in this process: tpch_power, tpch_spill, plan_heavy or sql_streams (default: all, one child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: generates and orders the operations")
	flag.Uint64Var(&cfg.dataSeed, "data-seed", 0x7c152025, "dataset seed, fixed across runs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: staged traced run, per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spill files, trace files and the report")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny scale for tests: SF 0.01, one set-up")
	flag.IntVar(&aa, "aa", 0, "run N full sets back to back, sets 2k and 2k+1 on seed -seed+k, and compare them against the bounds in ./BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.clients = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cfg.clients)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload == "" {
		if err := runSets(cfg, max(aa, 1)); err != nil {
			fatal(err)
		}
		return
	}
	res, info, err := runOne(cfg)
	if err != nil {
		fatal(err)
	}
	printRun(res, info)
	if err := emit(res, info); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// emit prints the info line and, last, the result line.
func emit(res *result, info *runInfo) error {
	ib, err := json.Marshal(info)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("info: %s\n%s\n", ib, rb)
	return err
}

// printRun lists every metric by name with its unit.
func printRun(res *result, info *runInfo) {
	fmt.Printf("workload %s  digest %s  ops %d  failed %d  passes %d\n", info.Workload, info.Digest, res.Attempted, res.Failed, info.Passes)
	for _, p := range info.Problems {
		fmt.Println("  problem:", p)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("  %-42s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
}

// runOne sets the workload up, measures it in this process and returns the
// result object. With tracing off it sets up cfg.setupReps() times and
// reports the median as setup_s.
func runOne(cfg config) (*result, *runInfo, error) {
	reps := cfg.setupReps()
	if cfg.trace {
		reps = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC() // drop the previous dataset before building the next
		}
		var err error
		if w, err = newWorkload(cfg); err != nil {
			return nil, nil, err
		}
		before := hostProbe()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		// Like a pass's times, rescaled to the reference host speed.
		setups = append(setups, wall*probeRefMS/((before+hostProbe())/2))
	}
	defer w.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	info := &runInfo{Workload: cfg.workload, Digest: w.digest()}
	var s *samples
	if cfg.trace {
		tr := &tracer{}
		vals, ts, err := w.traced(d, tr)
		if err != nil {
			return nil, nil, err
		}
		s = ts
		info.Trace = filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")
		if err := tr.writeChrome(info.Trace); err != nil {
			return nil, nil, err
		}
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{vals[def.Name], def.Unit}
		}
	} else {
		debug.FreeOSMemory() // what the repeated set-ups left behind
		resetPeakRSS()
		measured, err := w.measure(d)
		if err != nil {
			return nil, nil, err
		}
		s = measured
		if s.failed == s.attempted {
			return nil, nil, errors.New("no operation succeeded: " + fmt.Sprint(s.problems))
		}
		vals := s.endToEnd()
		vals["setup_s"] = median(setups)
		for _, def := range endToEnd {
			res.Metrics[def.Name] = metricValue{vals[def.Name], def.Unit}
		}
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	info.Samples, info.Passes, info.Problems = s.attempted-s.failed, len(s.passMS), s.problems
	return res, info, nil
}
