package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one complete ("ph":"X") event in a query's lifecycle trace:
// queueing, a pipeline's parallel work, a breaker finish, or one finish
// phase. Spans are built from the executor's existing stat structs plus
// wall-clock anchors — the executor records them at pipeline granularity
// (a handful per query), never per morsel or per batch.
type Span struct {
	Name  string        `json:"name"`
	Cat   string        `json:"cat"`
	TID   int           `json:"tid"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// Trace collects the spans of one query. Add is safe for concurrent use;
// the span slice is preallocated so steady-state recording does not
// allocate (growth beyond the initial capacity is amortized log-N).
type Trace struct {
	// QueryID labels the trace (and becomes the Chrome pid) — set once
	// before recording starts.
	QueryID int64
	// Label is a human name for the query ("Q21", raw SQL prefix, ...).
	Label string

	mu    sync.Mutex
	spans []Span
}

// NewTrace returns a trace with room for n spans before any growth.
func NewTrace(n int) *Trace {
	if n <= 0 {
		n = 32
	}
	return &Trace{spans: make([]Span, 0, n)}
}

// Add records one complete span.
func (t *Trace) Add(name, cat string, tid int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Cat: cat, TID: tid, Start: start, Dur: dur})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start time (ties
// broken by tid, then by insertion-stable name ordering), giving tests a
// deterministic view regardless of recording interleavings.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" phase:
// complete event with microsecond timestamp and duration).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object flavor of the trace-event file format.
type chromeFile struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	Metadata    map[string]string `json:"metadata,omitempty"`
}

func (t *Trace) events(epoch time.Time) []chromeEvent {
	spans := t.Spans()
	evs := make([]chromeEvent, 0, len(spans)+1)
	if t.Label != "" {
		evs = append(evs, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", PID: t.QueryID,
			Args: map[string]any{"name": t.Label},
		})
	}
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			PID:  t.QueryID,
			TID:  s.TID,
		})
	}
	return evs
}

// WriteChrome writes this trace alone as a Chrome trace-event JSON file.
// Timestamps are microseconds relative to the trace's earliest span.
func (t *Trace) WriteChrome(w io.Writer) error {
	return WriteChromeAll(w, []*Trace{t})
}

// WriteChromeAll merges several query traces into one Chrome trace-event
// file. Each query renders as its own process (pid = QueryID, named by
// Label); timestamps share one epoch — the earliest span across all
// traces — so concurrent streams line up on the tracing timeline.
func WriteChromeAll(w io.Writer, traces []*Trace) error {
	var epoch time.Time
	for _, t := range traces {
		if t == nil {
			continue
		}
		for _, s := range t.Spans() {
			if epoch.IsZero() || s.Start.Before(epoch) {
				epoch = s.Start
			}
		}
	}
	f := chromeFile{
		TraceEvents: []chromeEvent{},
		Metadata:    map[string]string{"engine": "bfcbo"},
	}
	for _, t := range traces {
		if t == nil {
			continue
		}
		f.TraceEvents = append(f.TraceEvents, t.events(epoch)...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ValidateChrome checks that data is a loadable Chrome trace-event JSON
// object: a traceEvents array whose complete ("X") events carry
// non-negative timestamps and durations and a known phase. It is the
// shared checker behind the trace tests and `cmd/bfcbo -trace-out`.
func ValidateChrome(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.TS == nil || *ev.TS < 0 {
				return fmt.Errorf("trace: event %d (%s) has bad ts", i, ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s) has bad dur", i, ev.Name)
			}
		case "M", "B", "E", "i", "I":
			// metadata / begin / end / instant — fine as-is
		case "":
			return fmt.Errorf("trace: event %d (%s) has no phase", i, ev.Name)
		default:
			return fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	return nil
}
