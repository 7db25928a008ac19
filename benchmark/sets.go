package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// The all-workloads modes. Each (workload, traced?) run is a child process
// of this same binary, so the umbrella report and the A/A comparison see
// exactly what a single -workload invocation prints, and every run starts
// from a fresh heap.

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SF         float64 `json:"scale_factor"`
	Seed       uint64  `json:"seed"`
	DataSeed   uint64  `json:"data_seed"`
	DOP        int     `json:"dop"`
	Seconds    float64 `json:"run_seconds"`
	GOGC       string  `json:"gogc"`
	GOMEMLIMIT string  `json:"gomemlimit"`
}

type workloadReport struct {
	Info     runInfo                `json:"info"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
	// Attempted and Failed cover the untraced run.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

type setReport struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
}

type fullReport struct {
	Env    environment `json:"environment"`
	Sets   []setReport `json:"sets"`
	Spread []spreadRow `json:"spread,omitempty"`
	// Claim is always null: this benchmark defines the baseline and claims
	// no gain.
	Claim any `json:"claim"`
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// specPath is where run.sh's working directory, the repository root, has
// the bounds the sets are compared against.
const specPath = "BENCHMARK.json"

// runSets runs n full sets. Sets 2k and 2k+1 share the seed cfg.seed+k: the
// two of a pair must repeat every exact count, and beyond the first pair the
// spread spans seeds, as the acceptance check's does.
func runSets(cfg config, n int) error {
	reportPath := filepath.Join(cfg.outDir, "report.json")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rep := fullReport{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: cfg.clients, GoVersion: runtime.Version(), Commit: commit,
		SF: cfg.sf(), Seed: cfg.seed, DataSeed: cfg.dataSeed, DOP: cfg.clients, Seconds: cfg.seconds,
		GOGC: envOr("GOGC", "100 (default)"), GOMEMLIMIT: envOr("GOMEMLIMIT", "off (default)"),
	}}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for i := 0; i < n; i++ {
		set := setReport{Seed: cfg.seed + uint64(i/2), Workloads: map[string]*workloadReport{}}
		for _, wl := range workloadWhy {
			wr := &workloadReport{}
			for _, trace := range []int{0, 1} {
				res, info, err := runChild(self, cfg, wl.name, set.Seed, trace)
				if err != nil {
					return fmt.Errorf("set %d %s trace %d: %w", i, wl.name, trace, err)
				}
				if trace == 0 {
					wr.Info, wr.EndToEnd, wr.Attempted, wr.Failed = *info, res.Metrics, res.Attempted, res.Failed
				} else {
					wr.PerLayer, wr.Info.Trace = res.Metrics, info.Trace
				}
				failed += res.Failed
			}
			set.Workloads[wl.name] = wr
			fmt.Printf("set %d  %-12s digest %s  failed %d/%d\n", i, wl.name, wr.Info.Digest, wr.Failed, wr.Attempted)
			for _, d := range endToEnd {
				fmt.Printf("  %-14s %14.6g %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
			}
		}
		rep.Sets = append(rep.Sets, set)
	}

	var disagree []string
	if n > 1 {
		bounds, err := readBounds(specPath)
		if err != nil {
			return err
		}
		rep.Spread, disagree = compareSets(rep.Sets, bounds)
		fmt.Printf("\n%-12s %-14s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, r := range rep.Spread {
			fmt.Printf("%-12s %-14s %14.6g %14.6g %14.6g %8.4f %6.2f\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Spread, r.Bound)
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s\n\"claim\": null\n", reportPath)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if len(disagree) > 0 {
		return fmt.Errorf("sets disagree:\n  %s", strings.Join(disagree, "\n  "))
	}
	return nil
}

// runChild measures one workload in a child process and parses its last
// two lines of standard output.
func runChild(self string, cfg config, workload string, seed uint64, trace int) (*result, *runInfo, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-data-seed", fmt.Sprint(cfg.dataSeed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", cfg.outDir,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	return parseRun(out)
}

// parseRun reads what a -workload run printed: the "info: " line and, last,
// the result line.
func parseRun(out []byte) (*result, *runInfo, error) {
	var info runInfo
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "info: "); ok {
			if err := json.Unmarshal([]byte(rest), &info); err != nil {
				return nil, nil, fmt.Errorf("info line: %w", err)
			}
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	if info.Workload == "" {
		return nil, nil, errors.New("no info line")
	}
	return &res, &info, nil
}

// readBounds reads each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// compareSets computes, per workload and end-to-end metric, the median, the
// quartiles and the relative spread (interquartile distance over median)
// across the sets, and lists what disagrees: a spread wider than the
// metric's bound (setup_s is reported, not judged, as in the acceptance
// check), a metric without a bound, and any workload digest or exact count
// that differs between two sets of one seed.
func compareSets(sets []setReport, bounds map[string]float64) ([]spreadRow, []string) {
	var rows []spreadRow
	var bad []string
	for _, wl := range workloadWhy {
		for _, d := range endToEnd {
			var vs []float64
			for _, s := range sets {
				vs = append(vs, s.Workloads[wl.name].EndToEnd[d.Name].Value)
			}
			bound, ok := bounds[d.Name]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s: no bound in %s", d.Name, specPath))
			}
			q1, q3 := quartiles(vs)
			r := spreadRow{wl.name, d.Name, median(vs), q1, q3, ratio(q3-q1, median(vs)), bound}
			rows = append(rows, r)
			if d.Name != "setup_s" && r.Spread > r.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.4f over bound %.2f", wl.name, d.Name, r.Spread, r.Bound))
			}
		}
		first := map[uint64]*workloadReport{} // by seed
		for _, s := range sets {
			w := s.Workloads[wl.name]
			f, seen := first[s.Seed]
			if !seen {
				first[s.Seed] = w
				continue
			}
			if w.Info.Digest != f.Info.Digest {
				bad = append(bad, fmt.Sprintf("%s seed %d: workload digest %s then %s", wl.name, s.Seed, f.Info.Digest, w.Info.Digest))
			}
			for _, name := range append([]string{"optimizer.plan_cost_rel"}, exactCounts...) {
				if a, b := f.PerLayer[name].Value, w.PerLayer[name].Value; a != b {
					bad = append(bad, fmt.Sprintf("%s %s: %v then %v", wl.name, name, a, b))
				}
			}
		}
	}
	return rows, bad
}
