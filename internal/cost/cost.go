// Package cost implements the planner's cost model: per-row CPU costs for
// scans, the three join methods, exchange (redistribute / broadcast)
// streaming at a configurable degree of parallelism, and the Bloom filter
// build/apply costs of §3.5 — apply is a constant k per probed row with
// k smaller than a hash-table lookup, build is free.
package cost

import "math"

// Params are the cost-model constants. Units are abstract "cost units",
// comparable only with each other (as in PostgreSQL).
type Params struct {
	// CPUTupleCost is charged per row produced by a scan.
	CPUTupleCost float64
	// CPUOperatorCost is charged per local-predicate evaluation per row.
	CPUOperatorCost float64
	// HashBuildCost is charged per row inserted into a hash table.
	HashBuildCost float64
	// HashProbeCost is charged per probe row (one lookup each).
	HashProbeCost float64
	// MergeSortCost scales the n·log2(n) term of sorting a join input.
	MergeSortCost float64
	// MergeScanCost is charged per row during the merge phase.
	MergeScanCost float64
	// NLPairCost is charged per (outer,inner) pair in a nested-loop join.
	NLPairCost float64
	// BloomApplyCost is the paper's k: per-row cost of testing a Bloom
	// filter. Must be below HashProbeCost, else filtering never pays.
	BloomApplyCost float64
	// BloomBuildCost per build row; the paper measured it negligible and
	// sets it to zero (§3.5).
	BloomBuildCost float64
	// TransferCost is charged per row moved between threads. It sits above
	// HashProbeCost so that shuffling a large input is dearer than probing
	// it in place — the calibration under which the No-BF planner prefers
	// building the big side in place and broadcasting the small probe side
	// (the paper's Figure 1(a) plan shape).
	TransferCost float64
	// DOP is the degree of parallelism used by streaming decisions.
	DOP int
}

// Default returns the parameter set used throughout the reproduction.
func Default() Params {
	return Params{
		CPUTupleCost:    0.01,
		CPUOperatorCost: 0.0025,
		// Building (hash + append) is cheaper per row than probing (hash +
		// chain walk + key compare). This calibration also reproduces the
		// paper's Figure 1(a): without Bloom filters, GaussDB builds the
		// hash table on the larger input (orders) and broadcasts the small
		// probe side, which is exactly what makes BF-Post unable to place
		// a filter there (FK probing an unfiltered PK, Heuristic 3).
		HashBuildCost:  0.008,
		HashProbeCost:  0.01,
		MergeSortCost:  0.002,
		MergeScanCost:  0.005,
		NLPairCost:     0.02,
		BloomApplyCost: 0.004,
		BloomBuildCost: 0,
		TransferCost:   0.012,
		// The paper's experiments run at DOP 48; streaming decisions are
		// costed at that parallelism even when the in-process executor runs
		// fewer goroutines, so plan shapes match the paper's environment.
		DOP: 48,
	}
}

// Validate reports whether the parameters respect the model's assumptions.
func (p Params) Validate() bool {
	return p.DOP >= 1 && p.BloomApplyCost < p.HashProbeCost &&
		p.CPUTupleCost > 0 && p.HashProbeCost > 0
}

// Scan returns the cost of scanning tableRows rows, evaluating predOps
// predicate operators on each, and testing nBloom Bloom filters per row.
// Bloom filters are tested against every input row (they execute inside the
// scan, before rows are emitted), matching the paper's "k × 600M" example.
func (p Params) Scan(tableRows float64, predOps int, nBloom int) float64 {
	c := tableRows * p.CPUTupleCost
	c += tableRows * float64(predOps) * p.CPUOperatorCost
	c += tableRows * float64(nBloom) * p.BloomApplyCost
	return c
}

// BloomBuild returns the (by default zero) cost of inserting buildRows keys
// into nFilters Bloom filters.
func (p Params) BloomBuild(buildRows float64, nFilters int) float64 {
	return buildRows * float64(nFilters) * p.BloomBuildCost
}

// Streaming identifies how join inputs are moved across threads (§3.9).
// It is a planner cost annotation: the executor reads it only to pick the
// Bloom build strategy (one filter vs one partial filter per partition).
type Streaming int

const (
	// None keeps both sides where they are (DOP 1 or co-located data).
	None Streaming = iota
	// BroadcastInner replicates the build side to every thread
	// (§3.9 strategy 1: one Bloom filter from one redundant hash table).
	BroadcastInner
	// Redistribute shuffles both sides by join-key hash
	// (§3.9 strategies 3/4: n partial Bloom filters, distributed lookup).
	Redistribute
)

func (s Streaming) String() string {
	switch s {
	case None:
		return "none"
	case BroadcastInner:
		return "BC"
	case Redistribute:
		return "RD"
	default:
		return "Streaming(?)"
	}
}

// HashJoin costs a hash join with the given input cardinalities and picks
// the cheaper of the two costed streaming strategies. Work terms model
// total work across all threads: BroadcastInner replicates the build input
// (and its hash table) on every thread; Redistribute shuffles both inputs
// once. Probe-side broadcast (§3.9 strategy 2) is not in the menu: priced
// naively it would build every large input in place, and the
// dimension-table build sides the paper's baseline plans show would never
// arise.
func (p Params) HashJoin(outerRows, innerRows float64) (float64, Streaming) {
	build := innerRows * p.HashBuildCost
	probe := outerRows * p.HashProbeCost
	if p.DOP <= 1 {
		return build + probe, None
	}
	dop := float64(p.DOP)
	bc := innerRows*dop*p.TransferCost + build*dop + probe
	rd := (innerRows+outerRows)*p.TransferCost + build + probe
	if bc <= rd {
		return bc, BroadcastInner
	}
	return rd, Redistribute
}

// MergeJoin costs sorting both inputs plus a linear merge.
func (p Params) MergeJoin(outerRows, innerRows float64) float64 {
	return p.MergeSorted(p.SortCost(outerRows), p.SortCost(innerRows), outerRows, innerRows)
}

// MergeSorted is MergeJoin given each input's SortCost: an enumerator joins
// one sub-plan many times and need take its logarithm only once.
func (p Params) MergeSorted(outerSort, innerSort, outerRows, innerRows float64) float64 {
	return outerSort + innerSort + (outerRows+innerRows)*p.MergeScanCost
}

// SortCost is the cost of sorting n rows for a merge join.
func (p Params) SortCost(n float64) float64 {
	if n < 2 {
		return p.MergeScanCost
	}
	return n * math.Log2(n) * p.MergeSortCost
}

// NestLoop costs a nested-loop join: every outer row scans the inner.
func (p Params) NestLoop(outerRows, innerRows float64) float64 {
	return outerRows * math.Max(innerRows, 1) * p.NLPairCost
}
