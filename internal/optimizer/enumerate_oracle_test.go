package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// The enumerator's previous bottom-up loop, kept verbatim as a brute-force
// oracle: it tries every (outer, inner) sub-plan pair of every join pair
// and decides everything about the pair in one combine call, which is what
// made it slow and what makes it obviously right. The enumerator must keep
// the same plan lists, in the same order, to the last bit.

// oracleEnum runs the previous loop over an optimizer's state, with the
// combine scratch buffers it kept.
type oracleEnum struct {
	*optimizer
	pending  []pendingBF
	resolved []int
}

// enumerate runs one bottom-up pass over the index's pair list, costing
// every sub-plan combination of every legal ordered pair.
func (o *oracleEnum) enumerate() error {
	g := o.graph
	o.pending = make([]pendingBF, 0, len(o.cands))
	o.resolved = make([]int, 0, len(o.cands))
	site := joinSite{set: -1}
	for i := range g.pairs {
		p := &g.pairs[i]
		if p.set != site.set {
			site.set = p.set
			site.card = o.est.JoinCard(g.sets[p.set])
		}
		site.outer, site.inner = g.sets[p.outer], g.sets[p.inner]
		site.joinType, site.mirrored, site.conds = p.joinType, p.mirrored, g.pairConds(p)
		list := &o.lists[p.set]
		for _, pa := range o.lists[p.outer].plans {
			for _, pb := range o.lists[p.inner].plans {
				o.combine(&site, pa, pb, list)
				if list.len() > o.opts.MaxPlansPerSet {
					return ErrSearchSpaceExceeded
				}
			}
		}
	}
	return nil
}

// combine implements §3.6's sub-plan join rules for one (outer, inner)
// sub-plan pair. It decides everything about the join — whether the pending
// Bloom filters allow it, its rows, pending list and cost — and asks the
// plan list whether such a plan would survive before it allocates anything.
func (o *oracleEnum) combine(j *joinSite, pa, pb *subPlan, list *planList) {
	// Inner-side pending filters must remain resolvable: their build
	// relations may not already sit inside the joined set's outer half.
	if pb.pendNeed.Overlaps(j.outer) {
		return
	}
	if pa.uncosted || pb.uncosted {
		o.combineNaive(j, pa, pb, list)
		return
	}

	// Classify the outer side's pending Bloom filters: resolved here, or
	// carried upwards, merged in candidate order with the inner side's
	// (both lists are sorted already). A plan holds at most one pending
	// filter per candidate, so the scratch buffers never grow.
	merged, resolved := o.pending[:0], o.resolved[:0]
	carried := 0
	pendIDs, pendNeed := pb.pendIDs, pb.pendNeed
	rest := pb.pending
	for _, p := range pa.pending {
		switch {
		case p.delta.SubsetOf(j.inner):
			// Fully resolvable here; this join builds the filter.
			resolved = append(resolved, p.bloomID)
		case p.delta.Overlaps(j.inner):
			// Partial overlap: only legal under the Fig. 3 exception —
			// the build relation itself must be on this build side (its
			// column populates the filter here), and the outstanding δ
			// relations must be promised by the inner side's own pending
			// filters. Otherwise Fig. 3(b): an illegal combination.
			if !j.inner.Has(p.cand.buildRel) || !p.delta.Minus(j.inner).SubsetOf(pb.pendNeed) {
				return
			}
			resolved = append(resolved, p.bloomID)
		default:
			for len(rest) > 0 && rest[0].cand.id < p.cand.id {
				merged, rest = append(merged, rest[0]), rest[1:]
			}
			merged = append(merged, p)
			carried++
			pendIDs |= 1 << (uint(p.cand.id) & 63)
			pendNeed = pendNeed.Union(p.delta)
		}
	}
	merged = append(merged, rest...)

	// Pending lists are immutable, so a join that carries one side's list
	// unchanged shares it; only a real merge needs a copy, if kept.
	pending, scratch := merged, true
	switch {
	case carried == 0:
		pending, scratch = pb.pending, false
	case len(pb.pending) == 0 && carried == len(pa.pending):
		pending, scratch = pa.pending, false
	}

	// A filter that another pending filter implies enters once.
	rows := j.card
	for i, p := range pending {
		if !p.cand.impliable || !implied(pending, i) {
			rows *= p.factor
		}
	}

	hc, streaming := o.hashJoinCost(j.mirrored, pa.rows, pb.rows)
	total := pa.cost + pb.cost + hc
	from, ok := list.admits(total, rows, pending, pendIDs)
	if !ok {
		return
	}

	// The sub-plan and its plan node are one allocation, and a plan this
	// set's list has evicted (about three in five of those admitted) gives
	// its own to the next.
	var kept *joinPlan
	if n := len(o.free); n > 0 {
		kept, o.free = o.free[n-1], o.free[:n-1]
	} else {
		kept = new(joinPlan)
	}
	*kept = joinPlan{
		subPlan: subPlan{
			rows: rows, cost: total,
			pending: pending, pendIDs: pendIDs, pendNeed: pendNeed,
			owner: kept,
		},
		join: plan.Join{
			JoinType: j.joinType, BuildPreserved: j.mirrored,
			Outer: pa.node, Inner: pb.node,
			Conds: j.conds, Streaming: streaming, Rows: rows, Cost: total,
		},
	}
	if len(resolved) > 0 {
		kept.join.BuildBlooms = slices.Clone(resolved)
	}
	if scratch {
		kept.pending = slices.Clone(pending)
	}
	kept.node = &kept.join
	list.add(&kept.subPlan, from, &o.free)
}

// oraclePendingEasier is pendingEasier's previous nested loop, which does
// not rely on the lists' order.
func oraclePendingEasier(a, b []pendingBF) bool {
	for _, pa := range a {
		found := false
		for _, pb := range b {
			if pa.cand.id == pb.cand.id && pa.delta.SubsetOf(pb.delta) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// samePlan reports whether two plan list entries hold the same plan: every
// field, floats to the bit, and their plan trees node by node.
func samePlan(a, b *subPlan) bool {
	return sameBits(a.cost, b.cost) && sameBits(a.rows, b.rows) && a.uncosted == b.uncosted &&
		a.pendIDs == b.pendIDs && a.pendNeed == b.pendNeed &&
		slices.EqualFunc(a.pending, b.pending, func(x, y pendingBF) bool {
			return x.cand.id == y.cand.id && x.delta == y.delta && sameBits(x.factor, y.factor) && x.bloomID == y.bloomID
		}) && sameNode(a.node, b.node)
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func sameNode(a, b plan.Node) bool {
	switch x := a.(type) {
	case *plan.Scan:
		y, ok := b.(*plan.Scan)
		return ok && x.Rel == y.Rel && slices.Equal(x.ApplyBlooms, y.ApplyBlooms) &&
			sameBits(x.Rows, y.Rows) && sameBits(x.Cost, y.Cost)
	case *plan.Join:
		y, ok := b.(*plan.Join)
		return ok && x.JoinType == y.JoinType && x.BuildPreserved == y.BuildPreserved &&
			slices.Equal(x.BuildBlooms, y.BuildBlooms) && x.Streaming == y.Streaming &&
			slices.Equal(x.Conds, y.Conds) && sameBits(x.Rows, y.Rows) && sameBits(x.Cost, y.Cost) &&
			sameNode(x.Outer, y.Outer) && sameNode(x.Inner, y.Inner)
	}
	return false
}

// renderSubPlan prints everything a plan list entry holds, floats as their
// bits, and its plan tree in full.
func renderSubPlan(p *subPlan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost=%x rows=%x uncosted=%v ids=%x need=%s pending=%s ",
		math.Float64bits(p.cost), math.Float64bits(p.rows), p.uncosted, p.pendIDs, p.pendNeed, renderPending(p.pending))
	renderNode(&sb, p.node)
	return sb.String()
}

func renderPending(ps []pendingBF) string {
	var sb strings.Builder
	sb.WriteString("[")
	for _, q := range ps {
		fmt.Fprintf(&sb, " c%d/δ%s/f%x/b%d", q.cand.id, q.delta, math.Float64bits(q.factor), q.bloomID)
	}
	sb.WriteString(" ]")
	return sb.String()
}

func renderNode(sb *strings.Builder, n plan.Node) {
	switch t := n.(type) {
	case *plan.Scan:
		fmt.Fprintf(sb, "scan%d%v/r%x/c%x", t.Rel, t.ApplyBlooms, math.Float64bits(t.Rows), math.Float64bits(t.Cost))
	case *plan.Join:
		sb.WriteString("(")
		renderNode(sb, t.Outer)
		sb.WriteString(" ")
		renderNode(sb, t.Inner)
		fmt.Fprintf(sb, " %v/%v/%v/%v/%v/r%x/c%x)", t.JoinType, t.BuildPreserved, t.BuildBlooms,
			t.Streaming, t.Conds, math.Float64bits(t.Rows), math.Float64bits(t.Cost))
	default:
		fmt.Fprintf(sb, "%T", n)
	}
}

// checkEnumerateAgainstOracle plans b under opts twice, once with each
// loop, and requires the same outcome and the same plan list for every
// set, hence the same number of plans kept. It returns the outcome.
func checkEnumerateAgainstOracle(t *testing.T, name string, b *query.Block, opts Options) error {
	t.Helper()
	got, want := newOptimizer(b, opts), newOptimizer(b, opts)
	got.seedPlans()
	want.seedPlans()
	gotErr, wantErr := got.enumerate(), (&oracleEnum{optimizer: want}).enumerate()
	if gotErr != wantErr {
		t.Fatalf("%s: enumerate returned %v, the oracle %v", name, gotErr, wantErr)
	}
	for i := range got.lists {
		g, w := got.lists[i].plans, want.lists[i].plans
		if len(g) != len(w) {
			t.Fatalf("%s: set %s keeps %d plans, the oracle %d", name, got.graph.sets[i], len(g), len(w))
		}
		for k := range g {
			if !samePlan(g[k], w[k]) {
				t.Fatalf("%s: set %s plan %d differs:\n got  %s\n want %s",
					name, got.graph.sets[i], k, renderSubPlan(g[k]), renderSubPlan(w[k]))
			}
		}
	}
	return gotErr
}

// Property: on random graphs with semi, anti and left units, the golden
// blocks and a second shared-key clique, in NoBF, BF-Post, BF-CBO with and
// without Heuristic 7 and Naive, under both cost profiles, the enumerator
// keeps exactly what the previous loop keeps — and under a plan cap that
// many runs outgrow, fails at the same point.
func TestPropertyEnumerateMatchesOracle(t *testing.T) {
	type block struct {
		name string
		sf   float64
		b    *query.Block
	}
	var blocks []block
	for seed := uint64(1); seed <= 200; seed++ {
		blocks = append(blocks, block{fmt.Sprintf("unit-%d", seed), 100, randomUnitGraph(seed)})
	}
	for _, c := range goldenCases() {
		blocks = append(blocks, block{c.name, c.sf, c.build(t)})
	}
	blocks = append(blocks, block{"clique6/20", 100, cliqueGraph(6, 20)})
	var capped [2]int // costed modes, Naive
	for _, b := range blocks {
		for _, p := range goldenProfiles {
			for _, m := range goldenModes {
				for _, limit := range []int{200_000, 8} {
					opts := p.options(b.sf)
					opts.Mode = m.mode
					opts.Heuristics.H7MaxSubPlans = m.h7
					opts.MaxPlansPerSet = limit
					name := fmt.Sprintf("%s %s %s cap %d", b.name, p.name, m.name, limit)
					if errors.Is(checkEnumerateAgainstOracle(t, name, b.b, opts), ErrSearchSpaceExceeded) {
						capped[0]++
					}
				}
			}
			opts := p.options(b.sf)
			opts.Mode = Naive
			opts.MaxPlansPerSet = 300
			if errors.Is(checkEnumerateAgainstOracle(t, b.name+" "+p.name+" naive", b.b, opts), ErrSearchSpaceExceeded) {
				capped[1]++
			}
		}
	}
	if capped[0] == 0 || capped[1] == 0 {
		t.Fatalf("plan cap reached by %d costed and %d Naive runs; both checks must be exercised", capped[0], capped[1])
	}
}

// Property: the merge walk agrees with the nested loop on random pending
// lists, sorted by candidate id with at most one filter per candidate, as
// every plan's are.
func TestPendingEasierMatchesNestedLoop(t *testing.T) {
	cands := make([]*candidate, 6)
	for i := range cands {
		cands[i] = &candidate{id: i}
	}
	rng := &propRNG{s: 1}
	list := func() []pendingBF {
		var ps []pendingBF
		for _, c := range cands {
			if rng.intn(2) == 0 {
				ps = append(ps, pendingBF{cand: c, delta: query.RelSet(1 + rng.intn(7))})
			}
		}
		return ps
	}
	easier := 0
	for range 20_000 {
		a, b := list(), list()
		got := pendingEasier(a, b)
		if got != oraclePendingEasier(a, b) {
			t.Fatalf("pendingEasier(%s, %s) = %v, the nested loop says otherwise", renderPending(a), renderPending(b), got)
		}
		if got {
			easier++
		}
	}
	if easier < 500 {
		t.Fatalf("only %d of 20 000 random pairs were easier; the lists do not exercise the walk", easier)
	}
}

// BenchmarkEnumerateLoops times the bottom-up pass alone, the previous loop
// against the enumerator, on optimizers seeded outside the timer
// (DefaultOptions, BF-CBO): `go test -run '^$' -bench BenchmarkEnumerateLoops
// -benchtime 100x -count 10 ./internal/optimizer`.
func BenchmarkEnumerateLoops(b *testing.B) {
	for _, g := range []*query.Block{
		chainGraph(14, 1401), starGraph("star", 11, 0, 1101), snowflakeGraph(12, 1201), cliqueGraph(6, 601),
	} {
		for _, loop := range []string{"oracle", "enumerate"} {
			b.Run(g.Name+"/"+loop, func(b *testing.B) {
				os := make([]*optimizer, b.N)
				for i := range os {
					os[i] = newOptimizer(g, DefaultOptions(100))
					os[i].seedPlans()
				}
				b.ResetTimer()
				for _, o := range os {
					if loop == "oracle" {
						(&oracleEnum{optimizer: o}).enumerate()
					} else {
						o.enumerate()
					}
				}
			})
		}
	}
}
