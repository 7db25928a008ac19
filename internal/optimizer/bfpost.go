package optimizer

import (
	"cmp"
	"slices"

	"bfcbo/internal/plan"
)

// postProcess implements the traditional post-optimization Bloom filter
// placement (the paper's BF-Post baseline, and the §3.7 pass retained after
// BF-CBO). The plan tree is fixed; the pass walks every hash join and, for
// every equi-join condition, tries to attach a Bloom filter built from the
// join's build side to the probe-side scan of the condition's outer
// relation — pushed all the way down to the scan. Heuristics H2/H3/H5/H6
// and the outer/anti-join correctness restrictions are re-asserted here,
// exactly as the paper's post-processing "repeats the assertion that the
// selectivity of the Bloom filter be larger than a threshold and several
// other heuristics".
//
// Crucially, the pass does NOT update any cardinality estimates: that is
// the defining weakness of BF-Post that BF-CBO fixes, and it is what makes
// the estimated-vs-actual comparison of Table 2 (MAE) reproducible.
func (o *optimizer) postProcess(p *plan.Plan) {
	h := o.opts.Heuristics
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
	// Relation pairs already covered by a multi-column filter: adding the
	// constituent single-column filters would only re-test rows the pair
	// filter has already cleared.
	compositePair := make(map[[2]int]bool)
	for _, b := range p.Blooms {
		have[pairKey{b.ApplyRel, b.ApplyCol, b.BuildRel, b.BuildCol}] = true
		if b.ApplyCol2 != "" {
			compositePair[[2]int{b.ApplyRel, b.BuildRel}] = true
		}
	}

	added := false
	for _, j := range p.Joins() {
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
			if have[k] || compositePair[[2]int{c.OuterRel, c.InnerRel}] {
				continue
			}
			delta := innerRels
			if h.H2MinApplyRows > 0 && o.est.BaseRows(c.OuterRel) <= h.H2MinApplyRows {
				continue
			}
			if h.H3FKLosslessPK && o.est.LosslessPK(c.OuterRel, []string{c.OuterCol}, c.InnerRel, []string{c.InnerCol}, delta) {
				continue
			}
			frac := o.est.SemiJoinFraction(c.OuterRel, c.OuterCol, c.InnerRel, c.InnerCol, delta)
			if h.H6MaxKeepFraction > 0 && frac > h.H6MaxKeepFraction {
				continue
			}
			if h.H5MaxBuildNDV > 0 && o.est.BuildNDV(c.InnerRel, c.InnerCol, delta) > h.H5MaxBuildNDV {
				continue
			}
			id := o.nextID
			o.nextID++
			spec := plan.BloomSpec{
				ID:       id,
				ApplyRel: c.OuterRel, ApplyCol: c.OuterCol,
				BuildRel: c.InnerRel, BuildCol: c.InnerCol,
				Delta:       delta,
				EstBuildNDV: o.est.BuildNDV(c.InnerRel, c.InnerCol, delta),
			}
			o.specs[id] = spec
			have[k] = true
			scan.ApplyBlooms = append(scan.ApplyBlooms, id)
			j.BuildBlooms = append(j.BuildBlooms, id)
			p.Blooms = append(p.Blooms, spec)
			added = true
		}
	}
	if added {
		slices.SortFunc(p.Blooms, func(x, y plan.BloomSpec) int { return cmp.Compare(x.ID, y.ID) })
	}
}
