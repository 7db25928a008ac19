package exec

import (
	"sync/atomic"
	"time"

	"bfcbo/internal/plan"
)

// DefaultMorselSize is the number of source rows a worker claims per
// NextBatch when Options.MorselSize is zero. Small enough that batches of
// row ids stay cache-resident through a scan→probe→probe chain, large
// enough that the shared cursor is not contended.
const DefaultMorselSize = 1024

// PhysicalOperator is the morsel-driven execution interface. Each worker
// of a pipeline owns a private operator chain; NextBatch pulls the next
// batch (a small RowSet in the usual late-materialization layout plus the
// sel/hashes side channels — see Batch) or nil at end of
// stream. Shared state behind the per-worker instances (the morsel
// cursor, hash tables) is owned by the pipeline.
type PhysicalOperator interface {
	// Open prepares per-worker state before the first NextBatch.
	Open() error
	// NextBatch returns the next non-empty batch, or nil at end of stream.
	// The returned batch is scratch owned by the operator, valid until its
	// next NextBatch call.
	NextBatch() (*Batch, error)
	// Close releases per-worker state after the last NextBatch.
	Close() error
}

// opStats are the shared runtime counters of one plan operator, updated
// with one atomic add per batch by every worker that runs an instance.
type opStats struct {
	label     string
	node      plan.Node
	rowsIn    atomic.Int64
	rowsOut   atomic.Int64
	batches   atomic.Int64
	wallNanos atomic.Int64
	// Probe sub-phases (gather and hash keys / probe directory / emit
	// pair-driven output). Zero for non-join operators.
	gatherNanos atomic.Int64
	probeNanos  atomic.Int64
	emitNanos   atomic.Int64
}

func (s *opStats) observe(rowsIn, rowsOut int, d time.Duration) {
	s.rowsIn.Add(int64(rowsIn))
	s.rowsOut.Add(int64(rowsOut))
	s.batches.Add(1)
	s.wallNanos.Add(int64(d))
}

// observePhases folds one vectorized probe batch's sub-timings in.
func (s *opStats) observePhases(gather, probe, emit time.Duration) {
	s.gatherNanos.Add(int64(gather))
	s.probeNanos.Add(int64(probe))
	s.emitNanos.Add(int64(emit))
}

// OpStat is the exported snapshot of one operator's runtime counters, the
// raw material of EXPLAIN ANALYZE.
type OpStat struct {
	// Label names the operator, e.g. "Scan l" or "HashJoin(inner) probe".
	Label string
	// Node is the plan node the operator implements: a *plan.Scan, or the
	// *plan.Join whose probe it is.
	Node plan.Node
	// RowsIn / RowsOut are total input and output rows across all workers.
	// For sources RowsIn counts rows scanned before filtering.
	RowsIn, RowsOut int64
	// Batches is the number of morsels/batches processed.
	Batches int64
	// Wall is the summed in-operator wall time across workers (it can
	// exceed the pipeline's elapsed time under parallelism).
	Wall time.Duration
	// Gather/Probe/Emit split a join probe's wall time into its three
	// kernel phases (all zero for other operators).
	Gather, Probe, Emit time.Duration
	// HashReusedKeys is always 0: join probes hash their own keys, since the
	// scan's Bloom filters hash differently and carry nothing downstream.
	// The field remains because benchmark/engine_traced.go reads it for
	// exec.hash_reused_keys, and it goes when that metric does.
	HashReusedKeys int64
}

func (s *opStats) snapshot() OpStat {
	return OpStat{
		Label:   s.label,
		Node:    s.node,
		RowsIn:  s.rowsIn.Load(),
		RowsOut: s.rowsOut.Load(),
		Batches: s.batches.Load(),
		Wall:    time.Duration(s.wallNanos.Load()),
		Gather:  time.Duration(s.gatherNanos.Load()),
		Probe:   time.Duration(s.probeNanos.Load()),
		Emit:    time.Duration(s.emitNanos.Load()),
	}
}

// BreakerPhases breaks a pipeline breaker's finish work into its phases. A
// field is zero when the sink has no such phase. The phases run one after
// another on the pipeline's goroutine once its workers have joined, so
// their sum is the finish's wall time, less untimed bookkeeping.
type BreakerPhases struct {
	// Merge is the time combining per-worker parts into one row set.
	Merge time.Duration
	// Sort is always zero: no breaker sorts. The field remains because
	// benchmark/engine_traced.go reads it for exec.phase_ms.sort, and it
	// goes when that metric does.
	Sort time.Duration
	// Build is the hash-table construction time: the key gather plus the
	// directory's hash and build.
	Build time.Duration
	// Bloom is the Bloom-filter population time.
	Bloom time.Duration
	// Fold is always zero: no sink folds. The field remains because
	// benchmark/engine_traced.go reads it for exec.phase_ms.fold, and it
	// goes when that metric does.
	Fold time.Duration
}

// eachFinish calls fn for every measured finish phase, in the order the
// breakers run them.
func (p BreakerPhases) eachFinish(fn func(name string, d time.Duration)) {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"merge", p.Merge}, {"build", p.Build}, {"bloom", p.Bloom}} {
		if ph.d > 0 {
			fn(ph.name, ph.d)
		}
	}
}

// SpillStat reports one pipeline's spill activity under a memory budget.
// All zero when the pipeline's reservations were never denied.
type SpillStat struct {
	// Bytes is the encoded bytes written to spill files (build/probe
	// partitions, recursive repartition passes).
	Bytes int64
	// BytesRead is the encoded bytes read back from spill files: grace
	// partition loads and probe drains, repartition passes (which read a
	// level to write the next), and spilled Bloom builds. A repartitioned
	// byte is counted once per pass on each side, so BytesRead > Bytes
	// signals recursion, not double counting.
	BytesRead int64
	// Partitions counts the spill files created: grace-join partition
	// files (both sides, all levels).
	Partitions int
	// Depth is the maximum grace-join repartition recursion depth (0 when
	// no partition pair needed a second split).
	Depth int
}

// Spilled reports whether the pipeline wrote any spill files.
func (s SpillStat) Spilled() bool { return s.Bytes > 0 || s.Partitions > 0 }

// add accumulates another pipeline's counters (for run-level totals).
func (s SpillStat) add(o SpillStat) SpillStat {
	s.Bytes += o.Bytes
	s.BytesRead += o.BytesRead
	s.Partitions += o.Partitions
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	return s
}

// PipelineStat reports one executed pipeline.
type PipelineStat struct {
	ID int
	// Label is the pipeline's one-line description (source -> ops -> sink).
	Label string
	// Workers is the degree of parallelism the pipeline ran with.
	Workers int
	// Wall is the elapsed time of the whole pipeline including its sink.
	Wall time.Duration
	// Rows is the number of rows the pipeline delivered to its sink.
	Rows int64
	// FinishWall is the elapsed time of the sink's finish (the pipeline
	// breaker work after the last worker batch).
	FinishWall time.Duration
	// Phases splits FinishWall into the breaker's measured phases.
	Phases BreakerPhases
	// Spill reports the pipeline's spill activity under a memory budget.
	Spill SpillStat
}
