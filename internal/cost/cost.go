// Package cost implements the planner's cost model: per-row CPU costs for
// scans and the hash join (the one join method, as in the executor),
// exchange (redistribute / broadcast) streaming at a configurable degree of
// parallelism, and the Bloom filter build/apply costs of §3.5 — apply is a
// constant k per probed row with k smaller than a hash-table lookup, build
// is free. The constants come in
// two named profiles: Paper, the environment the paper's figures are
// about, and Engine, measured on the executor this repository runs.
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
	// BloomBuildCost per build row; the paper measured it negligible and
	// sets it to zero (§3.5).
	BloomBuildCost float64
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
		BloomBuildCost: 0,
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

// Per-row times of internal/exec's operators, in nanoseconds, rounded from
// the medians of `go test ./internal/exec -run '^$' -bench
// BenchmarkJoinSides -benchtime 20x -count 5` on a shared 2-vCPU Intel Xeon
// @ 2.60 GHz (KVM guest, linux/amd64, go1.24.0), 2026-10-03, one worker;
// run to run the medians move by about 15 %. Engine's constants are these
// figures times a unit and nothing else. To recalibrate: rerun the
// benchmark, replace the literals, regenerate plans_engine.golden
// (`go test ./internal/optimizer -run TestGoldenPlans -update`) and read the
// diff.
//
//	sub-benchmark   measured          charged as
//	scan/plain      2.5 ns/row        CPUTupleCost
//	scan/pred       3.8 ns/row        CPUOperatorCost = the 1.3 ns over plain
//	scan/bloom      10.5 ns/row       BloomApplyCost  = the 8 ns over plain
//	build/16Ki      45 ns/row         HashBuildCost
//	probe/16Ki      25 ns/key         HashProbeCost
//	build/1024Ki    65 ns/row         (not charged: see below)
//	probe/1024Ki    145 ns/key        (not charged: see below)
//	mirror/semi     23.5 ns/key       HashProbeCost (probe and mark)
//	                2.5 ns/swept row  CPUTupleCost  (a build row emitted)
//	mirror/left     25.5 ns/key       HashProbeCost (probe, mark, emit pair)
//	                1.3 ns/swept row  CPUTupleCost  (a build row passed over)
//
// scan/bloom re-run after every filter became one bloom.Filter at 16 bits
// per key, same host at a quieter hour: plain 1.9, pred 3.0, bloom 7.7,
// 7.6 ns/row over a filter built by two workers (a case dropped once one
// goroutine built every filter), and 7.7 at the commit before. A filter test is 3.05 scanned rows against the 3.2
// charged: inside the band, nsBloomTest stays.
//
// scan/bloom re-run after the filter became register-blocked (both bits in
// one word, one-multiply hash, one fused pass over the key column), same
// host, 2026-10-16, five runs of each commit alternated in one hour (the
// commit before: plain 2.4, bloom 10.8, 9.6–11.0 ns/row to 1 MiB, 15.1 at
// 2 MiB, 15.9 at 4 MiB):
//
//	scan/plain            2.8 ns/row
//	scan/pred             4.4 ns/row
//	scan/bloom            6.3 ns/row   a test = 3.5 ns over plain
//	scan/bloom/pass5pct   5.9 ns/row   a test = 3.1 ns over plain, 5.5 % pass
//	scan/bloom/16KiB …    5.8–7.3 ns/row to 1 MiB, 10.7 at 2 MiB,
//	  4MiB                10.5 at 4 MiB
//
// A test now costs 1.25 scanned rows at the full pass rate and 1.1 at the
// workloads' (they pass about 7 % of tested rows), against the 3.2
// charged: outside the band. nsBloomTest stays at 8 all the same. The
// blocked filter is meant to move no plan, and lowering the charge would
// shift H6's break-even (1 − BloomApplyCost/HashProbeCost) with it; the
// two are re-derived together (ROADMAP item 3).
//
// A mirrored join — a semi, anti or left join built on its preserve side —
// is therefore priced as the hash join it is plus one scanned row per build
// row for the sweep that follows the probe (optimizer.hashJoinCost): no
// constant of its own.
//
// benchmark/'s own kernels agree where they overlap: bloom.test_ns_per_key
// 8.2 ns, query.filter_ns_per_row 6.6 ns for TPC-H's multi-conjunct
// predicates, hashtab.probe_ns_per_key 12 (L2) to 27 ns (memory) for the
// directory alone.
//
// The constants are flat, taken at the cache-resident size, which is where
// the plans this profile picks put their build sides. A probe against a
// 1 Mi-row table costs 5.8 times one against 16 Ki rows when the keys arrive
// in random order, but there is no build side left for a step in the probe
// term to move: the planner chooses the build side of semi, anti and left
// joins too, and at SF 0.2 the largest table any of the 22 TPC-H plans
// builds holds 69 689 rows (Q9; before, Q21's semi join pinned 1.2 M rows
// of lineitem there). So there is no step.
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
		BloomBuildCost:  0, // 0.8 ms of a 300 ms TPC-H pass: free, as in §3.5
		TransferCost:    0,
		DOP:             2,
	}
}

// Validate reports the first of the model's assumptions the parameters
// violate, or nil.
func (p Params) Validate() error {
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
