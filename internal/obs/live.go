package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Live in-flight query inspector: the consumer-facing view of queries
// *while they run*, as opposed to the flight recorder's view of queries
// after they finish. The executor registers a LiveQuery per admitted run,
// with a read function per pipeline over the counters its operators keep
// anyway — morsels claimed, rows scanned and emitted — so the workers do
// no extra work for it. Everything derived — completion fractions, phase
// strings, JSON — is computed at snapshot time by the reader.
//
// ErrKilled is how an admin kill surfaces: Inspector.Kill routes into
// the executor's run-wide stop flag, every worker winds down at its next
// morsel boundary, and the run returns an error wrapping ErrKilled.
var ErrKilled = errors.New("query killed via live inspector")

// Pipeline progress states (PipeProgress.state).
const (
	pipePending int32 = iota
	pipeRunning
	pipeDone
)

// PipeCounts is one pipeline's progress as its operators count it: the
// morsels its scan claimed, the rows those morsels held, and the rows the
// pipeline's last operator emitted. Each only grows.
type PipeCounts struct {
	Morsels, RowsScanned, RowsEmitted int64
}

// PipeProgress is one pipeline's live progress cell. Planned totals are
// fixed at registration, the counters read only grow, and state only
// advances — so every derived fraction is monotone by construction.
type PipeProgress struct {
	// ID and Label identify the pipeline (plan.Pipeline.ID / Describe()).
	ID    int
	Label string
	// MorselsPlanned is the number of morsels the shared cursor will hand
	// out: every morsel of the scan is claimed.
	MorselsPlanned int64

	read  func() PipeCounts
	state atomic.Int32
}

// Running marks the pipeline launched; Done marks its sink finished.
func (p *PipeProgress) Running() { p.state.CompareAndSwap(pipePending, pipeRunning) }
func (p *PipeProgress) Done()    { p.state.Store(pipeDone) }

// fraction is the pipeline's completion estimate in [0,1]: exact 1 once
// the sink finished, otherwise morsel progress against the planned total,
// capped below 1 while the sink's finish is still to run.
func (p *PipeProgress) fraction(morsels int64) float64 {
	if p.state.Load() == pipeDone {
		return 1
	}
	if p.MorselsPlanned <= 0 {
		return 0
	}
	f := float64(morsels) / float64(p.MorselsPlanned)
	if f > 0.99 {
		f = 0.99
	}
	return f
}

// LiveSched is the scheduler-side state of a running query, fetched live
// at snapshot time through the executor-provided callback.
type LiveSched struct {
	Held      int // worker slots currently held
	QueueWait time.Duration
	SlotWait  time.Duration
	SlotBusy  time.Duration
}

// LiveQuery is one in-flight run. The executor creates it after
// admission, wires the kill hook and the scheduler/memory callbacks,
// registers it, and deregisters on every exit path. All fields are fixed
// at registration except the per-pipeline progress cells.
type LiveQuery struct {
	ID          int64
	Label       string
	Fingerprint string // hex, "" when the caller computed none
	Mode        string
	Start       time.Time

	pipes []*PipeProgress

	// kill trips the run-wide stop flag; schedFn and memFn read live
	// scheduler and memory-grant state. Plain funcs so obs depends on
	// neither internal/sched nor internal/mem.
	kill    func()
	schedFn func() LiveSched
	memFn   func() int64
}

// NewLiveQuery starts building a live entry; add pipelines and hooks
// before Register.
func NewLiveQuery(id int64, label, fingerprint, mode string) *LiveQuery {
	return &LiveQuery{ID: id, Label: label, Fingerprint: fingerprint, Mode: mode, Start: time.Now()}
}

// AddPipeline appends a progress cell. morselsPlanned sizes the completion
// estimate; read returns the pipeline's counters, at snapshot time.
func (lq *LiveQuery) AddPipeline(id int, label string, morselsPlanned int64, read func() PipeCounts) *PipeProgress {
	if morselsPlanned < 1 {
		morselsPlanned = 1
	}
	p := &PipeProgress{ID: id, Label: label, MorselsPlanned: morselsPlanned, read: read}
	lq.pipes = append(lq.pipes, p)
	return p
}

// Pipeline returns the progress cell registered under pipeline id (nil
// if unknown — callers treat a nil cell as "nothing to mark").
func (lq *LiveQuery) Pipeline(id int) *PipeProgress {
	for _, p := range lq.pipes {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// OnKill sets the hook Inspector.Kill invokes (the executor routes it
// into its run-wide stop flag).
func (lq *LiveQuery) OnKill(fn func()) { lq.kill = fn }

// SetSchedFn and SetMemFn wire the live scheduler-state and memory-grant
// readings used by snapshots.
func (lq *LiveQuery) SetSchedFn(fn func() LiveSched) { lq.schedFn = fn }
func (lq *LiveQuery) SetMemFn(fn func() int64)       { lq.memFn = fn }

// PipeSnapshot is one pipeline's progress as serialized by
// /debug/queries/live.
type PipeSnapshot struct {
	ID             int     `json:"id"`
	Label          string  `json:"label"`
	State          string  `json:"state"` // "pending", "running", "done"
	MorselsPlanned int64   `json:"morsels_planned"`
	MorselsDone    int64   `json:"morsels_done"`
	RowsScanned    int64   `json:"rows_scanned"`
	RowsEmitted    int64   `json:"rows_emitted"`
	Fraction       float64 `json:"fraction"`
}

// LiveSnapshot is one running query as serialized by /debug/queries/live.
type LiveSnapshot struct {
	ID          int64          `json:"id"`
	Label       string         `json:"label"`
	Fingerprint string         `json:"fingerprint,omitempty"`
	Mode        string         `json:"mode,omitempty"`
	Start       time.Time      `json:"start"`
	ElapsedMS   float64        `json:"elapsed_ms"`
	Phase       string         `json:"phase"`
	Fraction    float64        `json:"fraction"`
	SlotsHeld   int            `json:"slots_held"`
	QueueWaitMS float64        `json:"queue_wait_ms"`
	SlotWaitMS  float64        `json:"slot_wait_ms"`
	SlotBusyMS  float64        `json:"slot_busy_ms"`
	MemBytes    int64          `json:"mem_bytes"`
	Pipelines   []PipeSnapshot `json:"pipelines"`
}

// snapshot derives the query's full progress view. Per-pipeline
// fractions are weighted by planned morsels — the denominator the
// source tables' row counts fix at registration — so the total is
// monotone across polls too.
func (lq *LiveQuery) snapshot(now time.Time) LiveSnapshot {
	s := LiveSnapshot{
		ID: lq.ID, Label: lq.Label, Fingerprint: lq.Fingerprint, Mode: lq.Mode,
		Start: lq.Start, ElapsedMS: float64(now.Sub(lq.Start)) / 1e6,
		Pipelines: make([]PipeSnapshot, 0, len(lq.pipes)),
	}
	var wsum, wtot float64
	running, done := 0, 0
	var phase string
	for _, p := range lq.pipes {
		st := p.state.Load()
		c := p.read()
		ps := PipeSnapshot{
			ID: p.ID, Label: p.Label,
			MorselsPlanned: p.MorselsPlanned, MorselsDone: c.Morsels,
			RowsScanned: c.RowsScanned, RowsEmitted: c.RowsEmitted,
			Fraction: p.fraction(c.Morsels),
		}
		switch st {
		case pipeDone:
			ps.State = "done"
			done++
		case pipeRunning:
			ps.State = "running"
			running++
			if phase == "" {
				phase = p.Label
			}
		default:
			ps.State = "pending"
		}
		w := float64(p.MorselsPlanned)
		wsum += w * ps.Fraction
		wtot += w
		s.Pipelines = append(s.Pipelines, ps)
	}
	if wtot > 0 {
		s.Fraction = wsum / wtot
	}
	switch {
	case len(lq.pipes) == 0:
		s.Phase = "planning"
	case done == len(lq.pipes):
		s.Phase = "finishing"
	case running == 0:
		s.Phase = "queued"
	default:
		s.Phase = phase
	}
	if lq.schedFn != nil {
		st := lq.schedFn()
		s.SlotsHeld = st.Held
		s.QueueWaitMS = float64(st.QueueWait) / 1e6
		s.SlotWaitMS = float64(st.SlotWait) / 1e6
		s.SlotBusyMS = float64(st.SlotBusy) / 1e6
	}
	if lq.memFn != nil {
		s.MemBytes = lq.memFn()
	}
	return s
}

// Inspector is the process-wide registry of in-flight queries behind
// /debug/queries/live and the Kill endpoint. All methods are nil-safe so
// an engine without an inspector costs nothing.
type Inspector struct {
	mu   sync.Mutex
	live map[int64]*LiveQuery
}

// NewInspector returns an empty inspector.
func NewInspector() *Inspector {
	return &Inspector{live: make(map[int64]*LiveQuery)}
}

// Register publishes a run; Deregister removes it (on every exit path).
func (in *Inspector) Register(lq *LiveQuery) {
	if in == nil || lq == nil {
		return
	}
	in.mu.Lock()
	in.live[lq.ID] = lq
	in.mu.Unlock()
}

func (in *Inspector) Deregister(id int64) {
	if in == nil {
		return
	}
	in.mu.Lock()
	delete(in.live, id)
	in.mu.Unlock()
}

// Kill requests cancellation of a running query. It reports whether the
// id was in flight; the kill hook itself runs outside the inspector lock
// (it only trips an atomic flag, but it is caller-provided code).
func (in *Inspector) Kill(id int64) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	lq := in.live[id]
	in.mu.Unlock()
	if lq == nil || lq.kill == nil {
		return false
	}
	lq.kill()
	return true
}

// Snapshot returns the progress of every in-flight query, ordered by id.
func (in *Inspector) Snapshot() []LiveSnapshot {
	if in == nil {
		return nil
	}
	now := time.Now()
	in.mu.Lock()
	qs := make([]*LiveQuery, 0, len(in.live))
	for _, lq := range in.live {
		qs = append(qs, lq)
	}
	in.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].ID < qs[j].ID })
	out := make([]LiveSnapshot, len(qs))
	for i, lq := range qs {
		out[i] = lq.snapshot(now)
	}
	return out
}

// WriteJSON serializes the live view as /debug/queries/live does.
func (in *Inspector) WriteJSON(w io.Writer) error {
	snaps := in.Snapshot()
	if snaps == nil {
		snaps = []LiveSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Queries []LiveSnapshot `json:"queries"`
	}{snaps})
}
