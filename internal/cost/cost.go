// Package cost implements the planner's cost model: per-row CPU costs for
// scans and the hash join (the one join method, as in the executor),
// exchange (redistribute / broadcast) streaming at a configurable degree of
// parallelism, and §3.5's Bloom filter test, a constant k per tested row
// smaller than a hash-table lookup; building a filter is free (§3.5) and
// has no term. The constants come in two named profiles: Paper, the
// environment the paper's figures are about, and Engine, measured on the
// executor this repository runs.
package cost

import "fmt"

// Params are the cost-model constants. Units are abstract "cost units",
// comparable only with each other (as in PostgreSQL) and only within one
// profile: an estimated cost under Paper() says nothing next to one under
// Engine().
type Params struct {
	// Name identifies the profile ("paper", "engine") wherever a plan or
	// an estimated cost is shown.
	Name string
	// CPUTupleCost is charged per row produced by a scan.
	CPUTupleCost float64
	// CPUOperatorCost is charged per local-predicate evaluation per row.
	CPUOperatorCost float64
	// HashBuildCost is charged per row inserted into a hash table.
	HashBuildCost float64
	// HashProbeCost is charged per probe row (one lookup each).
	HashProbeCost float64
	// BloomApplyCost is the paper's k: per-row cost of testing a Bloom
	// filter. Must be below HashProbeCost, else filtering never pays.
	BloomApplyCost float64
	// TransferCost is charged per row moved between threads.
	TransferCost float64
	// DOP is the degree of parallelism used by streaming decisions.
	DOP int
}

// Paper returns the profile of the paper's environment, the one every
// reproduced claim (Tables 2 and 3, Figs. 1, 4 and 6, plans.golden) is
// stated under: DOP 48, a per-row charge for moving rows between threads,
// and a hash build that is cheaper per row than a probe.
func Paper() Params {
	return Params{
		Name:            "paper",
		CPUTupleCost:    0.01,
		CPUOperatorCost: 0.0025,
		// Building (hash + append) is priced below probing (hash + chain
		// walk + key compare). This calibration reproduces the paper's
		// Figure 1(a): without Bloom filters, GaussDB builds the hash table
		// on the larger input (orders) and broadcasts the small probe side,
		// which is exactly what makes BF-Post unable to place a filter
		// there (FK probing an unfiltered PK, Heuristic 3).
		HashBuildCost:  0.008,
		HashProbeCost:  0.01,
		BloomApplyCost: 0.004,
		// Above HashProbeCost, so that shuffling a large input is dearer
		// than probing it in place — under which the No-BF planner prefers
		// building the big side in place and broadcasting the small probe
		// side (the Figure 1(a) plan shape).
		TransferCost: 0.012,
		// The paper's experiments run at DOP 48; streaming decisions are
		// costed at that parallelism whatever the in-process executor
		// runs, so plan shapes match the paper's environment.
		DOP: 48,
	}
}

// Per-row times of internal/exec's operators in nanoseconds, one worker,
// from `go test ./internal/exec -run '^$' -bench BenchmarkJoinSides
// -benchtime 20x` on a 2-vCPU Xeon @ 2.60 GHz (medians move run to run by
// about 15 %). Engine's constants are these times a unit and nothing else;
// after changing one, regenerate plans_engine.golden (`go test
// ./internal/optimizer -run TestGoldenPlans -update`) and read the diff.
//
//	constant     charges                                     sub-benchmark
//	nsScanRow    a row a scan reads (CPUTupleCost), and a    scan/plain
//	             build row a mirrored join sweeps
//	nsPredRow    a predicate on a row (CPUOperatorCost)      scan/pred − scan/plain
//	nsBloomTest  a Bloom test on a row that passed the       scan/bloom − scan/plain
//	             predicates (BloomApplyCost)
//	nsBuildRow   a row inserted in a hash table              build/16Ki
//	nsProbeKey   a probe key, a mirrored join's too          probe/16Ki, mirror/*
//
// The figures are flat, taken at the cache-resident size where this
// profile's plans put their build sides (the largest a TPC-H pass builds at
// SF 0.2 holds 69 689 rows), though probe/1024Ki costs 5.8 × probe/16Ki.
// scan/bloom now reads 3.1–3.5 ns a test over scan/plain against the 8
// charged: k and H6's break-even (1 − BloomApplyCost/HashProbeCost) are
// re-derived together (ROADMAP item 2(b)). CHANGES.md holds the history.
const (
	nsScanRow   = 2.5
	nsPredRow   = 1.3
	nsBloomTest = 8
	nsBuildRow  = 45
	nsProbeKey  = 25
)

// Engine returns the profile of the executor in internal/exec, the one
// optimizer.DefaultOptions plans with: a shared-memory morsel engine. No
// row is ever moved between threads (workers pull morsels; the build side
// is one shared table), so there is no transfer term; and a build row —
// appended to a worker part, concatenated, its key gathered and hashed,
// and inserted in the directory — costs more than a probe key, so the
// smaller input builds. With no transfer term every
// parallel hash join is costed Redistribute (a broadcast only replicates
// the build), a label the executor does not read: it builds one Bloom filter
// per spec. DOP says only that there is more than one thread.
func Engine() Params {
	// Cost units per nanosecond: as in the paper profile, one scanned row
	// is 0.01. Constant arithmetic, so the same bits on every host.
	const unit = 0.01 / nsScanRow
	return Params{
		Name:            "engine",
		CPUTupleCost:    nsScanRow * unit,
		CPUOperatorCost: nsPredRow * unit,
		HashBuildCost:   nsBuildRow * unit,
		HashProbeCost:   nsProbeKey * unit,
		BloomApplyCost:  nsBloomTest * unit,
		TransferCost:    0,
		DOP:             2,
	}
}

// Validate reports the first of the model's assumptions the parameters
// violate, or nil.
func (p *Params) Validate() error {
	switch {
	case p.DOP < 1:
		return fmt.Errorf("cost: DOP %d: streaming is costed for at least one thread", p.DOP)
	case p.CPUTupleCost <= 0:
		return fmt.Errorf("cost: CPUTupleCost %g: a scanned row must cost something", p.CPUTupleCost)
	case p.HashProbeCost <= 0:
		return fmt.Errorf("cost: HashProbeCost %g: a hash probe must cost something", p.HashProbeCost)
	case p.BloomApplyCost >= p.HashProbeCost:
		return fmt.Errorf("cost: BloomApplyCost %g not below HashProbeCost %g: a Bloom filter test must be cheaper than the probe it saves, or filtering never pays",
			p.BloomApplyCost, p.HashProbeCost)
	}
	return nil
}

// Scan returns the cost of scanning tableRows rows, evaluating predOps
// predicate operators on each, and testing nBloom Bloom filters on each of
// the testedRows rows that pass the predicates: the filters run inside the
// scan, after its predicates.
func (p *Params) Scan(tableRows float64, predOps int, testedRows float64, nBloom int) float64 {
	c := tableRows * p.CPUTupleCost
	c += tableRows * float64(predOps) * p.CPUOperatorCost
	c += testedRows * float64(nBloom) * p.BloomApplyCost
	return c
}

// Streaming identifies how join inputs are moved across threads (§3.9).
// It is a planner cost annotation naming the paper's cluster strategy: the
// executor does not read it (a Bloom filter is one filter under every value).
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
func (p *Params) HashJoin(outerRows, innerRows float64) (float64, Streaming) {
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
