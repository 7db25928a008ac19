package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"bfcbo/internal/obs"
)

// The benchmark's own tracing. The program under test gains no timer: the
// staged run calls each layer's public entry point from here and wraps the
// call in a span; what exec.RunContext already reports (its obs.Trace spans
// of queue, pipelines, breaker finishes and phases) is attached below the
// exec span as child intervals. Spans stay in memory and are written once,
// when the run ends, as Chrome trace-event JSON.

// Span layers. A layer's self time is its spans' duration minus the part
// their children cover.
const (
	layerOp       = "bench"      // one operation end to end (the root span)
	layerParse    = "sqlparser"  // sqlparser.Parse
	layerOptimize = "optimizer"  // optimizer.Optimize
	layerPlan     = "plan"       // plan.Fingerprint, plan.Decompose
	layerExec     = "exec"       // exec.RunContext
	layerExecRun  = "exec.query" // its post-admission part, outside every pipeline
	layerSched    = "sched"      // admission queue wait
	layerPipeline = "exec.pipeline"
	layerFinish   = "exec.finish"
	layerPhase    = "exec.phase"
)

type span struct {
	id, parent int // parent 0 = root
	query      int // one id per operation, shared by all its spans
	client     int
	name       string
	layer      string
	start      time.Time
	dur        time.Duration
}

// tracer collects spans from all client goroutines. A nil tracer records
// nothing, so the staged path is the same code traced and untraced.
type tracer struct {
	mu    sync.Mutex
	spans []span
	query int
}

// newQuery hands out the identifier the spans of one operation share.
func (t *tracer) newQuery() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.query++
	return t.query
}

// add records a finished span and returns its id for children to name.
func (t *tracer) add(parent, query, client int, name, layer string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, query, client, name, layer, start, dur})
	return id
}

// setSpan fills in a span reserved earlier with add (a root is reserved
// before its children so they can name it, and timed after them).
func (t *tracer) setSpan(id int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].start, t.spans[id-1].dur = start, dur
}

// attachExec hangs exec.RunContext's own spans under the exec span:
// queue and query under exec, pipelines under query, each finish under its
// pipeline and each phase under its finish (the executor keys them by tid).
func (t *tracer) attachExec(execID, query, client int, et *obs.Trace) {
	if t == nil {
		return
	}
	queryID := execID
	pipe := map[int]int{}
	finish := map[int]int{}
	spans := et.Spans()
	// Parents first: the executor appends a pipeline's span before its
	// finish and phases, but the "query" span last.
	for _, s := range spans {
		if s.Cat == "query" {
			queryID = t.add(execID, query, client, "exec.query", layerExecRun, s.Start, s.Dur)
		}
	}
	for _, s := range spans {
		switch s.Cat {
		case "sched":
			t.add(execID, query, client, "sched.queue", layerSched, s.Start, s.Dur)
		case "pipeline":
			pipe[s.TID] = t.add(queryID, query, client, s.Name, layerPipeline, s.Start, s.Dur)
		}
	}
	for _, s := range spans {
		if s.Cat == "breaker" {
			finish[s.TID] = t.add(pipe[s.TID], query, client, "finish", layerFinish, s.Start, s.Dur)
		}
	}
	for _, s := range spans {
		if s.Cat == "phase" {
			t.add(finish[s.TID], query, client, "phase."+s.Name, layerPhase, s.Start, s.Dur)
		}
	}
}

// selfTimes returns each layer's self time: span duration minus the union
// of its children's intervals (pipelines of one query overlap, so children
// are merged, not summed).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		ks := kids[s.id]
		sort.Slice(ks, func(i, j int) bool { return t.spans[ks[i]].start.Before(t.spans[ks[j]].start) })
		covered := time.Duration(0)
		end := s.start
		for _, k := range ks {
			c := t.spans[k]
			cs, ce := c.start, c.start.Add(c.dur)
			if cs.Before(end) {
				cs = end
			}
			if limit := s.start.Add(s.dur); ce.After(limit) {
				ce = limit
			}
			if ce.After(cs) {
				covered += ce.Sub(cs)
				end = ce
			}
		}
		out[s.layer] += s.dur - covered
	}
	return out
}

// layerCalls returns the summed duration of each layer's spans. Spans of one
// layer never nest in each other, so for the layers the benchmark calls
// directly this is the wall spent inside that layer's calls.
func (t *tracer) layerCalls() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer] += s.dur
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event file (pid = client,
// tid = query, span id/parent/layer in args) and checks it loads.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	var epoch time.Time
	for _, s := range t.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS: us(s.start.Sub(epoch)), Dur: us(s.dur), PID: s.client, TID: s.query,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "metadata": map[string]string{"engine": "bfcbo", "writer": "benchmark"}})
	if err != nil {
		return err
	}
	if err := obs.ValidateChrome(data); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
