// Package optimizer implements the paper's core contribution: a bottom-up
// System-R style dynamic-programming join enumerator with four modes —
//
//   - NoBF:   plain cost-based optimization, no Bloom filters.
//   - BFPost: plain CBO plus the traditional post-optimization pass that
//     bolts Bloom filters onto the already-chosen plan (the baseline).
//   - BFCBO:  the paper's two-phase method. Bloom filter candidates are
//     marked on base relations, a first bottom-up pass collects the valid
//     build-side relation sets (δ), Bloom filter scan sub-plans are costed
//     per δ, and a second bottom-up pass plans with those sub-plans under
//     the join-order restrictions of §3.6.
//   - Naive:  the strawman of §3.1 that keeps uncosted, unresolved Bloom
//     filter sub-plans alive; its planning time explodes with join count.
package optimizer

import (
	"fmt"
	"sort"

	"bfcbo/internal/bloom"
	"bfcbo/internal/cost"
)

// Mode selects the optimization strategy.
type Mode int

const (
	NoBF Mode = iota
	BFPost
	BFCBO
	Naive
)

func (m Mode) String() string {
	switch m {
	case NoBF:
		return "NoBF"
	case BFPost:
		return "BF-Post"
	case BFCBO:
		return "BF-CBO"
	case Naive:
		return "Naive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Heuristics are the search-space-limiting rules of §3.10. Zero values
// disable the optional ones; Default enables the paper's configuration.
type Heuristics struct {
	// H1LargerOnly places a Bloom filter candidate only on the larger
	// relation of each hashable join clause (§3.3).
	H1LargerOnly bool
	// H2MinApplyRows skips candidates whose apply-side estimated rows are
	// at or below this threshold (§3.3; 10,000 at SF 100).
	H2MinApplyRows float64
	// H3FKLosslessPK prunes δs where the candidate's clause is a foreign
	// key referencing a lossless primary key (§3.4).
	H3FKLosslessPK bool
	// H4 (apply all candidates of a relation simultaneously) is structural
	// in this implementation and always on, as in the paper (§3.5).

	// H5MaxBuildNDV removes sub-plans whose Bloom filter would hold more
	// distinct values than this (§3.5; 2M at SF 100, sized for L2). The
	// engine profile sets it from the filter's size in bytes
	// (engineBloomBytes), the paper profile scales it by SF.
	H5MaxBuildNDV float64
	// H6MaxKeepFraction removes Bloom filters expected to keep more than
	// this fraction of rows (§3.5; the paper keeps filters removing at
	// least 1/3 of rows, i.e. threshold 2/3).
	H6MaxKeepFraction float64
	// H7MaxSubPlans, when > 0, prunes a relation's Bloom filter sub-plans
	// down to the single best (fewest rows, then cheapest) whenever their
	// number exceeds this cap (§3.10; 4 in the paper's Table 3 experiment).
	H7MaxSubPlans int
	// H8MinJoinInputCard, when > 0, skips Bloom filter candidates entirely
	// if the total join-input cardinality observed in phase 1 stays below
	// the threshold — the quick-transactional-query escape hatch (§3.10).
	H8MinJoinInputCard float64
	// H9BothSides relaxes H1: candidates go on both relations of a clause,
	// but only δs whose build side is smaller than the apply side are kept
	// (§3.10).
	H9BothSides bool
}

// DefaultHeuristics returns the paper's §4.1 settings, with the row and NDV
// thresholds scaled from SF 100 to the given scale factor so that small
// in-memory datasets behave like the paper's 100 GB one. PaperOptions plans
// with exactly these; DefaultOptions replaces H5 with a byte cap.
func DefaultHeuristics(scaleFactor float64) Heuristics {
	scale := scaleFactor / 100
	minRows := 10_000 * scale
	if minRows < 20 {
		minRows = 20
	}
	maxNDV := 2_000_000 * scale
	if maxNDV < 5000 {
		// The floor keeps the scaled threshold above the build-side NDVs
		// of the paper's accepted filters (Q12's filtered lineitem passes
		// H5 at SF 100; its scaled equivalent must pass here too).
		maxNDV = 5000
	}
	return Heuristics{
		H1LargerOnly:      true,
		H2MinApplyRows:    minRows,
		H3FKLosslessPK:    true,
		H5MaxBuildNDV:     maxNDV,
		H6MaxKeepFraction: 2.0 / 3.0,
	}
}

// Options configure one optimization run.
type Options struct {
	Mode       Mode
	Cost       cost.Params
	Heuristics Heuristics
	// MaxPlansPerSet bounds a relation set's plan list; exceeding it aborts
	// with an error. It exists to keep Naive mode's exponential blow-up
	// from consuming all memory (the paper gave up after 30 minutes on a
	// 6-table join; we give up deterministically).
	MaxPlansPerSet int
	// DisablePostPass skips the §3.7 post-processing pass that BF-CBO
	// normally retains; used by ablation experiments.
	DisablePostPass bool
}

// engineBloomBytes is Heuristic 5 for the executor this repository runs: a
// Bloom filter is planned only if the filter the executor builds for it
// (bloom.BitsForNDV) holds at most this many bytes, at every scale factor.
// The paper's reason for the cap is that a filter test must stay in cache
// (§3.5, "sized for L2"); here the cache is measured, not scaled by SF. One
// filter test per scanned row, medians of `go test ./internal/exec -run
// '^$' -bench 'BenchmarkJoinSides/scan/(plain|bloom)' -benchtime 100x
// -count 7` on a shared 2-vCPU Intel Xeon (48 KiB L1d and 2 MiB L2 per
// core; KVM guest, linux/amd64, go1.24.0), 2026-10-15, one worker:
//
//	scan/bloom/<size>   ns/row   over scan/plain (1.9)
//	16KiB               7.4      5.6
//	32KiB               7.2      5.4
//	64KiB               7.1      5.3
//	128KiB              7.2      5.3
//	256KiB              7.8      6.0
//	512KiB              7.7      5.9
//	1MiB                8.4      6.5
//	2MiB                10.9     9.0
//	4MiB                12.5     10.6
//
// Flat to 512 KiB; 1 MiB is the first step, and from 2 MiB, the L2 size, a
// test costs half as much again. A 256 KiB cap ran the benchmark's
// tpch_power the same, within run-to-run noise.
const engineBloomBytes = 512 << 10

// engineH5MaxBuildNDV is the largest estimated NDV whose filter, at the
// size the executor builds, fits in engineBloomBytes: 262 144 keys.
func engineH5MaxBuildNDV() float64 {
	capBits := uint64(8 * engineBloomBytes)
	return float64(sort.Search(int(capBits), func(n int) bool {
		return bloom.BitsForNDV(uint64(n)+1) > capBits
	}))
}

// DefaultOptions returns BF-CBO with paper-default heuristics at the given
// scale factor, except Heuristic 5, which caps each filter at
// engineBloomBytes; costed for the executor this repository runs
// (cost.Engine). It is what the engine, the CLI and the benchmark plan
// with.
func DefaultOptions(scaleFactor float64) Options {
	h := DefaultHeuristics(scaleFactor)
	h.H5MaxBuildNDV = engineH5MaxBuildNDV()
	return Options{
		Mode:           BFCBO,
		Cost:           cost.Engine(),
		Heuristics:     h,
		MaxPlansPerSet: 200_000,
	}
}

// PaperOptions is DefaultOptions costed for the paper's environment
// (cost.Paper) and planned under the paper's heuristics scaled by SF
// (DefaultHeuristics): the reproduction — internal/bench, cmd/bench,
// plans.golden, the Fig. 1/4/6 tests — plans with it, because those
// claims are about that environment.
func PaperOptions(scaleFactor float64) Options {
	o := DefaultOptions(scaleFactor)
	o.Cost = cost.Paper()
	o.Heuristics = DefaultHeuristics(scaleFactor)
	return o
}
