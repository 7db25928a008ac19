// Package plan defines the physical plan trees the optimizer emits and the
// executor interprets: scans (optionally applying Bloom filters), hash
// joins (with streaming annotations and Bloom filter build sites), and the
// Bloom filter specs that tie build sites to apply sites.
package plan

import (
	"fmt"
	"strings"

	"bfcbo/internal/cost"
	"bfcbo/internal/query"
)

// BloomSpec describes one planned Bloom filter: built from BuildRel.BuildCol
// on the build side of some hash join, applied during the scan of ApplyRel.
type BloomSpec struct {
	// ID is unique within a plan; scans and joins reference it.
	ID int
	// ApplyRel / ApplyCol locate the probe-side scan column being filtered.
	ApplyRel int
	ApplyCol string
	// BuildRel / BuildCol locate the column whose values populate the
	// filter.
	BuildRel int
	BuildCol string
	// Delta is the set of build-side relations the filter's cardinality
	// estimate assumed (δ in the paper); informational in the executor.
	Delta query.RelSet
	// EstBuildNDV sizes the filter at runtime.
	EstBuildNDV float64
}

// Cond is one equi-join condition: outer column = inner column.
type Cond struct {
	OuterRel int
	OuterCol string
	InnerRel int
	InnerCol string
}

// Node is a physical plan operator.
type Node interface {
	// Rels is the set of relations the node's output covers.
	Rels() query.RelSet
	// EstRows is the planner's output-cardinality estimate.
	EstRows() float64
	// EstCost is the cumulative estimated cost of the subtree.
	EstCost() float64
}

// Scan reads one base relation, applies its local predicate and any Bloom
// filters, and emits qualifying row ids.
type Scan struct {
	Rel   int
	Alias string
	Table string
	Pred  query.Predicate
	// ApplyBlooms are the IDs of Bloom filters this scan waits for and
	// applies (§3.9: scans wait for required filters before proceeding).
	ApplyBlooms []int

	Rows float64
	Cost float64
}

func (s *Scan) Rels() query.RelSet { return query.NewRelSet(s.Rel) }
func (s *Scan) EstRows() float64   { return s.Rows }
func (s *Scan) EstCost() float64   { return s.Cost }

// Join combines two subtrees with a hash join, the one join method: the
// Inner side is the build side (the paper's convention: build/inner on the
// right) and the Outer side probes, whatever the join type.
type Join struct {
	JoinType query.JoinType
	// BuildPreserved marks the mirrored orientation of a semi, anti or left
	// hash join: Inner — the build side — is the clause's row-preserving
	// side and Outer, the probing side, is its whole subquery/nullable unit
	// (a right semi / right anti / right outer join). Probing marks the
	// build rows that found a match; the rows the join type keeps are
	// emitted from the build side once the probe input is exhausted. When
	// false the preserve side probes, as in every inner join.
	BuildPreserved bool
	Outer          Node
	Inner          Node
	Conds          []Cond
	// BuildBlooms are filter IDs whose bit vectors are populated from this
	// join's build side.
	BuildBlooms []int
	Streaming   cost.Streaming

	Rows float64
	Cost float64
}

func (j *Join) Rels() query.RelSet { return j.Outer.Rels().Union(j.Inner.Rels()) }
func (j *Join) EstRows() float64   { return j.Rows }
func (j *Join) EstCost() float64   { return j.Cost }

// Kind names the join's type and orientation the way plans print it:
// "inner", "semi", "anti", "left", and for the mirrored orientation "right
// semi", "right anti", "right outer" (the build side is the preserved one).
func (j *Join) Kind() string {
	switch {
	case !j.BuildPreserved:
		return j.JoinType.String()
	case j.JoinType == query.Left:
		return "right outer"
	default:
		return "right " + j.JoinType.String()
	}
}

// Plan is a complete physical plan for one query block.
type Plan struct {
	Root   Node
	Blooms []BloomSpec
	// Mode records which optimizer mode produced the plan (for reports).
	Mode string
	// CostProfile names the cost.Params the plan was costed under ("paper",
	// "engine"; empty for hand-built plans). Estimated costs compare only
	// within one profile, so every rendering of a plan carries it.
	CostProfile string
	// PlanningTime in seconds, measured by the optimizer.
	PlanningTime float64
}

// Scans returns all scan nodes in the plan, outer-first.
func (p *Plan) Scans() []*Scan {
	var out []*Scan
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case *Scan:
			out = append(out, t)
		case *Join:
			walk(t.Outer)
			walk(t.Inner)
		}
	}
	walk(p.Root)
	return out
}

// Joins returns all join nodes, outer-first depth-first.
func (p *Plan) Joins() []*Join {
	var out []*Join
	var walk func(Node)
	walk = func(n Node) {
		if j, ok := n.(*Join); ok {
			out = append(out, j)
			walk(j.Outer)
			walk(j.Inner)
		}
	}
	walk(p.Root)
	return out
}

// CountBlooms reports how many Bloom filters the plan applies.
func (p *Plan) CountBlooms() int { return len(p.Blooms) }

// Explain renders an indented tree with row estimates, streaming and Bloom
// annotations, in the spirit of the paper's figures.
func (p *Plan) Explain() string {
	var b strings.Builder
	profile := ""
	if p.CostProfile != "" {
		profile = "  profile=" + p.CostProfile
	}
	fmt.Fprintf(&b, "plan (%s)%s  estRows=%.0f  estCost=%.0f  blooms=%d\n",
		p.Mode, profile, p.Root.EstRows(), p.Root.EstCost(), len(p.Blooms))
	WriteTree(&b, p.Root, func(b *strings.Builder, n Node) { fmt.Fprintf(b, "rows=%.0f", n.EstRows()) })
	for _, bf := range p.Blooms {
		fmt.Fprintf(&b, "  BF#%d: build rel%d.%s (δ=%s, ndv≈%.0f) -> apply rel%d.%s\n",
			bf.ID, bf.BuildRel, bf.BuildCol, bf.Delta, bf.EstBuildNDV, bf.ApplyRel, bf.ApplyCol)
	}
	return b.String()
}

// WriteTree writes the tree under root one node a line, outer before inner,
// indented two spaces a level: the node's head ("Scan alias (table)" or
// "HashJoin(kind) streaming"), two spaces, what note writes for it, then
// its Bloom filters (blooms= on a scan, buildBF= on a join) and a scan's
// predicate. EXPLAIN and EXPLAIN ANALYZE differ only in their note.
func WriteTree(b *strings.Builder, root Node, note func(*strings.Builder, Node)) {
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		switch t := n.(type) {
		case *Scan:
			fmt.Fprintf(b, "Scan %s (%s)  ", t.Alias, t.Table)
			note(b, n)
			if len(t.ApplyBlooms) > 0 {
				fmt.Fprintf(b, "  blooms=%v", t.ApplyBlooms)
			}
			if t.Pred != nil {
				b.WriteString("  filter: " + t.Pred.String())
			}
			b.WriteByte('\n')
		case *Join:
			fmt.Fprintf(b, "HashJoin(%s) %s  ", t.Kind(), t.Streaming)
			note(b, n)
			if len(t.BuildBlooms) > 0 {
				fmt.Fprintf(b, "  buildBF=%v", t.BuildBlooms)
			}
			b.WriteByte('\n')
			walk(t.Outer, depth+1)
			walk(t.Inner, depth+1)
		}
	}
	walk(root, 1)
}

// JoinOrderSignature returns a parenthesised string of scan aliases in tree
// order, used by tests and the harness to detect join-order changes between
// optimizer modes (the paper's red-italic "different plan" markers).
func (p *Plan) JoinOrderSignature() string {
	var sig func(Node) string
	sig = func(n Node) string {
		switch t := n.(type) {
		case *Scan:
			return t.Alias
		case *Join:
			return "(" + sig(t.Outer) + " " + sig(t.Inner) + ")"
		}
		return "?"
	}
	return sig(p.Root)
}
