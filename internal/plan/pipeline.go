package plan

import (
	"fmt"
	"strings"

	"bfcbo/internal/query"
)

// This file decomposes a physical plan tree into an ordered DAG of
// pipelines, the unit of morsel-driven execution. A pipeline starts at a
// base-table scan, streams batches through zero or more fused hash-join
// probes, and ends at a pipeline breaker: the build side of a hash join, or
// the query result. Pipelines are emitted in execution order — inner
// (build) sides strictly before the pipelines that consume them — which is
// also what guarantees every Bloom filter is fully built before any
// probe-side scan that waits on it runs (§3.9).
//
// The hash join is the plan's one join method and the executor's one join
// operator, and its build the one breaker that spills (the grace hash join).

// SinkKind says where a pipeline's output goes.
type SinkKind int

const (
	// SinkResult collects the query's final row set.
	SinkResult SinkKind = iota
	// SinkHashBuild materializes the build side of SinkJoin, populates its
	// Bloom filters, and builds the shared hash table.
	SinkHashBuild
)

func (k SinkKind) String() string {
	switch k {
	case SinkResult:
		return "result"
	case SinkHashBuild:
		return "hash-build"
	default:
		return fmt.Sprintf("SinkKind(%d)", int(k))
	}
}

// Pipeline is one streaming segment of a decomposed plan.
type Pipeline struct {
	// ID is the pipeline's position in execution order (0-based).
	ID int
	// Source is the scan that produces the pipeline's morsels.
	Source *Scan
	// Ops are the hash-join probes applied to every batch, in order.
	Ops []*Join
	// Sink says where batches end up; SinkJoin is the join whose build side
	// a SinkHashBuild pipeline delivers (nil for SinkResult).
	Sink     SinkKind
	SinkJoin *Join
	// Deps are IDs of pipelines that must complete before this one starts:
	// the hash builds its ops probe, plus the hash-build pipelines that
	// populate any Bloom filter the source scan applies (§3.9: a scan waits
	// for its filters). Every dep ID is smaller than the pipeline's own ID —
	// pipelines are emitted in a topological order — which is what lets the
	// executor schedule the DAG without cycle detection.
	Deps []int
}

// Rels reports the relations covered by the pipeline's output batches.
func (pl *Pipeline) Rels() query.RelSet {
	if len(pl.Ops) > 0 {
		return pl.Ops[len(pl.Ops)-1].Rels()
	}
	return pl.Source.Rels()
}

// EstSinkRows is the planner's estimate of the rows this pipeline delivers
// to its breaker — the sizing input for the executor's spill fan-out (how
// many grace-join partitions a denied hash build splits into).
func (pl *Pipeline) EstSinkRows() float64 {
	if len(pl.Ops) > 0 {
		return pl.Ops[len(pl.Ops)-1].EstRows()
	}
	return pl.Source.EstRows()
}

// Decompose splits a plan into pipelines in execution order, every join laid
// out as a hash join: its inner side ends in a hash build, its probe is fused
// into the pipeline of its outer side. A join with no condition has no key to
// hash on; Block.Validate refuses the disconnected join graphs that would
// need one, so only a hand-built plan gets here, and it is refused as a plan
// bug — as is an unknown node type — so the executor surfaces it instead of
// panicking.
func Decompose(p *Plan) ([]*Pipeline, error) {
	d := &decomposer{}
	last, err := d.build(p.Root)
	if err != nil {
		return nil, err
	}
	last.Sink = SinkResult
	d.emit(last)
	d.addBloomDeps()
	return d.out, nil
}

// addBloomDeps adds dependency edges from every pipeline whose source scan
// applies a Bloom filter to the hash-build pipeline that populates it. The
// probe pipeline of the resolving join already depends on the build via the
// breaker edge, but a filter can be applied deeper: a scan on the build side
// of another hash join inside the probe subtree has no structural edge to
// the pipeline that builds the filter, and only this edge keeps a concurrent
// DAG schedule from starting the scan before its filter exists.
func (d *decomposer) addBloomDeps() {
	builder := make(map[int]int) // Bloom filter ID -> building pipeline ID
	for _, pl := range d.out {
		if pl.Sink == SinkHashBuild {
			for _, id := range pl.SinkJoin.BuildBlooms {
				builder[id] = pl.ID
			}
		}
	}
	for _, pl := range d.out {
		for _, id := range pl.Source.ApplyBlooms {
			if b, ok := builder[id]; ok && b != pl.ID {
				pl.Deps = addDep(pl.Deps, b)
			}
		}
	}
}

// addDep appends id unless already present.
func addDep(deps []int, id int) []int {
	for _, d := range deps {
		if d == id {
			return deps
		}
	}
	return append(deps, id)
}

type decomposer struct {
	out []*Pipeline
}

func (d *decomposer) emit(pl *Pipeline) *Pipeline {
	pl.ID = len(d.out)
	d.out = append(d.out, pl)
	return pl
}

// build returns the open pipeline whose current stream is n's output.
// Build-side pipelines are emitted (closed) along the way, inner side
// first — the order the reference interpreter evaluates them in.
func (d *decomposer) build(n Node) (*Pipeline, error) {
	switch t := n.(type) {
	case *Scan:
		return &Pipeline{ID: -1, Source: t}, nil
	case *Join:
		if len(t.Conds) == 0 {
			return nil, fmt.Errorf("plan: HashJoin(%s) has no join condition to hash on (plan bug)", t.Kind())
		}
		in, err := d.build(t.Inner)
		if err != nil {
			return nil, err
		}
		in.Sink, in.SinkJoin = SinkHashBuild, t
		d.emit(in)
		out, err := d.build(t.Outer)
		if err != nil {
			return nil, err
		}
		out.Deps = append(out.Deps, in.ID)
		out.Ops = append(out.Ops, t)
		return out, nil
	default:
		return nil, fmt.Errorf("plan: cannot decompose node %T", n)
	}
}

// DAGStats summarizes a decomposed pipeline DAG — the registration record
// a process-wide scheduler needs to admit the query: how many breakers
// participate in the memory-budget/spill subsystem (which sizes the
// query's minimum memory grant).
type DAGStats struct {
	// SpillableSinks counts the hash-build pipelines, the one breaker that
	// spills (denied a grant, it becomes a grace hash join; the result is
	// accounted and never denied) — each needs a minimum grant to run
	// usefully.
	SpillableSinks int
}

// SummarizeDAG computes the scheduler registration record of a decomposed
// plan.
func SummarizeDAG(pipes []*Pipeline) DAGStats {
	var d DAGStats
	for _, pl := range pipes {
		if pl.Sink == SinkHashBuild {
			d.SpillableSinks++
		}
	}
	return d
}

// Describe renders one pipeline as a single line, e.g.
// "P2: Scan l -> HashJoin(inner) probe(l_orderkey) -> result (after P0,P1)".
// Probe operators name their hash-key column so batch-level reports (probe
// sub-phases) can be read off the pipeline label.
func (pl *Pipeline) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P%d: Scan %s", pl.ID, pl.Source.Alias)
	for _, op := range pl.Ops {
		fmt.Fprintf(&b, " -> HashJoin(%s) probe(%s)", op.Kind(), op.Conds[0].OuterCol)
	}
	fmt.Fprintf(&b, " -> %s", pl.Sink)
	if len(pl.Deps) > 0 {
		fmt.Fprintf(&b, " (after %s)", depList(pl.Deps))
	}
	return b.String()
}

func depList(deps []int) string {
	parts := make([]string, len(deps))
	for i, d := range deps {
		parts[i] = fmt.Sprintf("P%d", d)
	}
	return strings.Join(parts, ",")
}
