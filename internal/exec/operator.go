package exec

import (
	"sync/atomic"
	"time"

	"bfcbo/internal/plan"
)

// DefaultMorselSize is the number of source rows a worker claims from a
// scan's shared cursor at a time, and the number of kept rows a scan fills
// a batch to before it hands it out (claiming morsels until it holds that
// many). Small enough that batches of row ids stay cache-resident through
// a scan→probe→probe chain, large enough that the shared cursor is not
// contended.
const DefaultMorselSize = 1024

// PhysicalOperator is the morsel-driven execution interface. Each worker
// of a pipeline owns a private operator chain; NextBatch pulls the next
// batch, a small RowSet in the usual late-materialization layout (one
// row-id column per covered relation), or nil at end of stream. Shared
// state behind the per-worker instances (the morsel cursor, hash tables)
// is owned by the pipeline.
//
// Ownership: a returned row set and its columns belong to the producer
// until the next NextBatch call on the same operator, which may overwrite
// them — a scan hands out its selection vector, a probe or a grace drain
// its output scratch. A consumer that keeps rows past that call copies
// them (the hash build appends into its parts, the grace route sink's
// router into its partition files before it returns), so no batch escapes
// its worker.
type PhysicalOperator interface {
	// Open prepares per-worker state before the first NextBatch.
	Open() error
	// NextBatch returns the next non-empty batch, or nil at end of stream.
	NextBatch() (*RowSet, error)
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

// observe folds one batch in.
func (s *opStats) observe(rowsIn, rowsOut int, d time.Duration) { s.fold(1, rowsIn, rowsOut, d) }

// fold adds batches batches, their rows and their wall time with one
// atomic add a counter. A scan folds once per batch it hands out, with
// the morsels the batch claimed as its batches.
func (s *opStats) fold(batches, rowsIn, rowsOut int, d time.Duration) {
	s.rowsIn.Add(int64(rowsIn))
	s.rowsOut.Add(int64(rowsOut))
	s.batches.Add(int64(batches))
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
	// Batches is, for a scan, the number of morsels it claimed (one batch
	// it hands out may span several, and it folds their count once per
	// batch); for a probe, the number of input batches it processed, plus
	// a mirrored join's sweep batches.
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
// another on the pipeline's last worker once the others have ended, so
// their sum is the finish's wall time, less untimed bookkeeping.
type BreakerPhases struct {
	// Merge is the time a hash build takes to combine its per-worker parts
	// into one row set. Only builds merge: the result sink keeps no rows.
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
	// Bytes is the bytes written to spill files (build/probe partitions,
	// recursive repartition passes): 4 a row id, with nothing else in a
	// file, so like the row counts below it is the same at every DOP.
	Bytes int64
	// BytesRead is the bytes read back from spill files, 4 a row id: grace
	// partition loads and probe drains, repartition passes (which read a
	// level to write the next), and spilled Bloom builds. A probe
	// pipeline's figure includes the build partitions its join's build
	// pipeline wrote, and a repartitioned byte is counted once per pass on
	// each side.
	BytesRead int64
	// BuildRowsWritten and ProbeRowsWritten count the rows written to
	// spill files from the join's build and probe side, repartition passes
	// included; BuildRowsRead and ProbeRowsRead the rows read back
	// (partition loads and probe drains, repartition passes, spilled Bloom
	// builds). Exact counts: the same at every DOP.
	BuildRowsWritten, ProbeRowsWritten int64
	BuildRowsRead, ProbeRowsRead       int64
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
	s.BuildRowsWritten += o.BuildRowsWritten
	s.ProbeRowsWritten += o.ProbeRowsWritten
	s.BuildRowsRead += o.BuildRowsRead
	s.ProbeRowsRead += o.ProbeRowsRead
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
