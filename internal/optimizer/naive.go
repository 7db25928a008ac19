package optimizer

import "bfcbo/internal/plan"

// This file implements the §3.1 strawman: Bloom filter sub-plans are created
// up front with unknown δ, maintained uncosted, and re-costed by a recursive
// walk of the whole sub-plan tree whenever a join finally provides the build
// side. Because uncosted plans cannot be pruned, plan lists grow
// multiplicatively with every join that does not resolve a filter — the
// optimization-time explosion the paper measured (28 ms / 375 ms / 56 s /
// DNF for 3/4/5/6-table joins).

// addNaiveBasePlans seeds relation rel's list with unknown-δ Bloom filter
// sub-plans: one per candidate, plus the all-candidates combination.
func (o *optimizer) addNaiveBasePlans(rel int, l *planList) {
	var mine []*candidate
	for _, c := range o.cands {
		if c.applyRel == rel {
			mine = append(mine, c)
		}
	}
	if len(mine) == 0 {
		return
	}
	rows := o.est.BaseRows(rel)
	combos := make([][]*candidate, 0, len(mine)+1)
	for _, c := range mine {
		combos = append(combos, []*candidate{c})
	}
	if len(mine) > 1 {
		combos = append(combos, mine)
	}
	for _, combo := range combos {
		pending := make([]pendingBF, len(combo))
		ids := make([]int, len(combo))
		for i, c := range combo {
			id := o.allocBloom(c, 0, 0)
			pending[i] = pendingBF{cand: c, delta: 0, factor: 1, bloomID: id}
			ids[i] = id
		}
		sortPending(pending)
		cst := o.scanCost(rel, len(pending))
		pendIDs, pendNeed := summarizePending(pending)
		l.insert(&subPlan{
			rows: rows, cost: cst,
			pending: pending, pendIDs: pendIDs, pendNeed: pendNeed, uncosted: true,
			node: o.newScanNode(rel, rows, cst, ids),
		})
	}
}

// combineNaive joins two sub-plans at least one of which carries unknown-δ
// Bloom filters. Resolution assigns δ = inner set and triggers the
// "necessarily recursive" re-costing of the outer sub-plan tree (§3.1).
// The filter's spec takes its δ from the join that builds it in the chosen
// plan (collectSpecs): one filter id resolves in many plans.
func (o *optimizer) combineNaive(j *joinSite, pa, pb *subPlan, list *planList) {
	jt, conds, inner := j.joinType, j.conds, j.inner

	// Every pending filter here has unknown δ: addNaiveBasePlans allocates
	// them so, and a join carries only those it does not resolve.
	var carried []pendingBF
	var factors []naiveFactor
	var buildIDs []int
	for _, p := range pa.pending {
		if !inner.Has(p.cand.buildRel) {
			carried = append(carried, p)
			continue
		}
		_, f := o.fractions(p.cand, inner)
		factors = append(factors, naiveFactor{applyRel: p.cand.applyRel, buildRel: p.cand.buildRel, factor: f})
		buildIDs = append(buildIDs, p.bloomID)
	}
	carried = append(carried, pb.pending...)
	sortPending(carried)

	// The recursive re-cost: walk the outer tree applying the now-known
	// reduction factors at its leaf scans and recomputing every
	// intermediate cardinality and cost on the way back up.
	paRows, paCost := pa.rows, pa.cost
	if len(factors) > 0 {
		paRows, paCost = o.recostNaive(pa.node, factors)
	}

	rows := j.card
	hc, streaming := o.hashJoinCost(j.mirrored, paRows, pb.rows)
	total := paCost + pb.cost + hc
	node := &plan.Join{
		JoinType: jt, BuildPreserved: j.mirrored, Outer: pa.node, Inner: pb.node,
		Conds: conds, BuildBlooms: buildIDs, Streaming: streaming,
		Rows: rows, Cost: total,
	}
	pendIDs, pendNeed := summarizePending(carried)
	list.insert(&subPlan{
		rows: rows, cost: total, node: node, uncosted: len(carried) > 0,
		pending: carried, pendIDs: pendIDs, pendNeed: pendNeed,
	})
}

// naiveFactor is one resolved Bloom reduction: it shrinks every subtree
// that contains the apply relation but not yet the build relation.
type naiveFactor struct {
	applyRel int
	buildRel int
	factor   float64
}

// recostNaive recomputes (rows, cost) of a sub-plan tree after Bloom filter
// reduction factors become known for some of its leaf relations. This is
// deliberately a full recursive traversal — the cost the paper identifies
// as unavoidable in the naive design.
func (o *optimizer) recostNaive(n plan.Node, factors []naiveFactor) (float64, float64) {
	switch t := n.(type) {
	case *plan.Scan:
		rows := o.est.BaseRows(t.Rel)
		for _, f := range factors {
			if f.applyRel == t.Rel {
				rows *= f.factor
			}
		}
		return rows, o.scanCost(t.Rel, len(t.ApplyBlooms))
	case *plan.Join:
		ro, co := o.recostNaive(t.Outer, factors)
		ri, ci := o.recostNaive(t.Inner, factors)
		rels := t.Rels()
		rows := o.est.JoinCard(rels)
		for _, f := range factors {
			if rels.Has(f.applyRel) && !rels.Has(f.buildRel) {
				rows *= f.factor
			}
		}
		hc, _ := o.hashJoinCost(t.BuildPreserved, ro, ri)
		return rows, co + ci + hc
	default:
		return 1, 0
	}
}
