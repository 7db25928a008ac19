package optimizer

import "bfcbo/internal/plan"

// postProcess implements the traditional post-optimization Bloom filter
// placement (the paper's BF-Post baseline, and the §3.7 pass retained after
// BF-CBO). The plan tree is fixed; the pass walks every hash join and, for
// every equi-join condition, tries to attach a Bloom filter built from the
// join's build side to the probe-side scan of the condition's outer
// relation — pushed all the way down to the scan. Heuristics H2/H3/H5/H6
// and the outer/anti-join correctness restrictions are re-asserted here,
// through the checks BF-CBO's candidates pass, exactly as the paper's
// post-processing "repeats the assertion that the selectivity of the Bloom
// filter be larger than a threshold and several other heuristics".
//
// Crucially, the pass does NOT update any cardinality estimates: that is
// the defining weakness of BF-Post that BF-CBO fixes, and it is what makes
// the estimated-vs-actual comparison of Table 2 (MAE) reproducible.
func (o *optimizer) postProcess(p *plan.Plan) {
	scanByRel := make(map[int]*plan.Scan)
	for _, s := range p.Scans() {
		scanByRel[s.Rel] = s
	}
	// Existing (apply, build) column pairs — BF-CBO planned filters that
	// must not be duplicated.
	type pairKey struct {
		applyRel int
		applyCol string
		buildRel int
		buildCol string
	}
	have := make(map[pairKey]bool)
	joins := p.Joins()
	for _, j := range joins {
		for _, id := range j.BuildBlooms {
			c := o.blooms[id].cand
			have[pairKey{c.applyRel, c.applyCol, c.buildRel, c.buildCol}] = true
		}
	}

	for _, j := range joins {
		if !bloomMayFilterProbe(j.JoinType, j.BuildPreserved) {
			continue
		}
		innerRels := j.Inner.Rels()
		outerRels := j.Outer.Rels()
		for _, c := range j.Conds {
			if !outerRels.Has(c.OuterRel) || !innerRels.Has(c.InnerRel) {
				continue
			}
			scan, ok := scanByRel[c.OuterRel]
			if !ok {
				continue
			}
			k := pairKey{c.OuterRel, c.OuterCol, c.InnerRel, c.InnerCol}
			if have[k] {
				continue
			}
			if o.tooSmallToFilter(c.OuterRel) ||
				(o.opts.Heuristics.H3FKLosslessPK && o.est.LosslessPK(c.OuterRel, c.OuterCol, c.InnerRel, c.InnerCol, innerRels)) {
				continue
			}
			cand := &candidate{applyRel: c.OuterRel, applyCol: c.OuterCol, buildRel: c.InnerRel, buildCol: c.InnerCol}
			_, ndv, ok := o.admitDelta(cand, innerRels)
			if !ok {
				continue
			}
			id := o.allocBloom(cand, innerRels, ndv)
			have[k] = true
			scan.ApplyBlooms = append(scan.ApplyBlooms, id)
			j.BuildBlooms = append(j.BuildBlooms, id)
		}
	}
}
