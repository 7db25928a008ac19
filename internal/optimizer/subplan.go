package optimizer

import (
	"cmp"
	"slices"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// candidate is a Bloom filter candidate (BFC, §3.3): the option of filtering
// applyRel's scan with a filter built from buildRel.buildCol. It is a
// property of the apply relation; Δ (deltas) is populated by phase 1.
type candidate struct {
	id       int
	applyRel int
	applyCol string
	buildRel int
	buildCol string
	// mirrored marks the candidate of a semi, anti or left clause that
	// filters the clause's unit from its preserve side: it resolves only at
	// the mirrored join, where the preserve side builds.
	mirrored bool
	// fromH9 marks candidates produced by the permissive Heuristic 9.
	fromH9 bool
	// equated marks a single-column candidate from an inner clause or
	// class, so its apply and build columns are in one inner equivalence
	// class: any other such candidate from the same build column is applied
	// to a column every join set holding both apply relations equates with
	// its own (see implied).
	equated bool
	// impliable marks an equated candidate that another equated candidate
	// from the same build column, applied to another relation, could imply
	// (markImpliable); implied never needs to search for any other.
	impliable bool
	// deltas is Δ: the valid build-side relation sets observed in phase 1,
	// each once, in visit order.
	deltas []query.RelSet
}

// pendingBF is one applied-but-unresolved Bloom filter carried by a
// sub-plan: the filter is already reflected in the sub-plan's row estimate,
// and delta must eventually appear on the inner side of a hash join.
type pendingBF struct {
	cand *candidate
	// delta is δ; zero in Naive mode where it is not yet known.
	delta query.RelSet
	// factor is the row-reduction factor |R ˆ⋉ δ|/|R| priced into rows.
	factor float64
	// bloomID is the plan.BloomSpec ID allocated for this application.
	bloomID int
}

// implied reports whether another filter of pending implies pending[i], so
// that pending[i]'s factor is already in the rows: one built from the same
// column over a δ holding pending[i]'s (so its keys are a subset of
// pending[i]'s), applied to a column of another relation that the joined
// set equates with pending[i]'s. A row pair that joins on that column
// passes both filters or neither. Of filters that imply each other (the
// same δ), the one with the smallest factor, then the first, counts.
func implied(pending []pendingBF, i int) bool {
	p := pending[i]
	if !p.cand.impliable {
		return false
	}
	for k, q := range pending {
		if k == i || !q.cand.equated || q.cand.applyRel == p.cand.applyRel ||
			q.cand.buildRel != p.cand.buildRel || q.cand.buildCol != p.cand.buildCol ||
			!p.delta.SubsetOf(q.delta) {
			continue
		}
		if q.delta != p.delta || q.factor < p.factor || (q.factor == p.factor && k < i) {
			return true
		}
	}
	return false
}

// markImpliable sets the impliable flag of each of cands: whether another
// of them meets implied's conditions on candidates.
func markImpliable(cands []*candidate) {
	for _, p := range cands {
		p.impliable = p.equated && slices.ContainsFunc(cands, func(q *candidate) bool {
			return q.equated && q.applyRel != p.applyRel && q.buildRel == p.buildRel && q.buildCol == p.buildCol
		})
	}
}

// subPlan is one entry in a relation set's plan-list: a costed physical
// alternative with its Bloom filter property set.
type subPlan struct {
	// The fields the plan-list scans and combine's early exits read come
	// first, to share a cache line.
	cost    float64
	rows    float64
	pending []pendingBF // sorted by cand.id; empty for plain plans; never mutated
	// pendIDs and pendNeed summarise pending (see summarizePending); every
	// constructor sets them together with pending.
	pendIDs  uint64
	pendNeed query.RelSet
	// uncosted marks Naive-mode plans whose Bloom filters have unknown δ:
	// their row estimate is not final and they are exempt from pruning,
	// which is precisely what makes the naive approach explode (§3.1).
	uncosted bool
	node     plan.Node
	// owner is the joinPlan this sub-plan is the head of; nil for base
	// plans and Naive-mode joins, which are never recycled.
	owner *joinPlan
}

// joinPlan is a costed join's sub-plan and its plan node in one allocation.
type joinPlan struct {
	subPlan
	join plan.Join
}

// summarizePending folds a pending list into two bitmasks. ids has bit
// cand.id mod 64 set for every pending filter: ids(a) ⊄ ids(b) proves
// pendingEasier(a, b) false in one instruction. need is the union of the
// relations the filters still wait for (δ, or just the build relation
// while δ is unknown): an inner-side plan whose need overlaps the outer
// side can never resolve them.
func summarizePending(ps []pendingBF) (ids uint64, need query.RelSet) {
	for _, p := range ps {
		ids |= 1 << (uint(p.cand.id) & 63)
		if p.delta.Empty() {
			need = need.Add(p.cand.buildRel)
		} else {
			need = need.Union(p.delta)
		}
	}
	return ids, need
}

// sortPending orders a freshly built pending list by candidate id.
func sortPending(ps []pendingBF) {
	slices.SortFunc(ps, func(a, b pendingBF) int { return cmp.Compare(a.cand.id, b.cand.id) })
}

// pendingEasier reports whether a's Bloom constraints are no harder than
// b's: every pending filter of a appears in b for the same candidate with a
// superset δ. A plan with easier constraints can be used in every join where
// the harder one can (and more), so it may dominate (§3.5's pruning rule).
// Both lists are sorted by candidate id with at most one filter per
// candidate, so one merge walk decides it.
func pendingEasier(a, b []pendingBF) bool {
	k := 0
	for _, pa := range a {
		for k < len(b) && b[k].cand.id < pa.cand.id {
			k++
		}
		if k == len(b) || b[k].cand.id != pa.cand.id || !pa.delta.SubsetOf(b[k].delta) {
			return false
		}
		k++
	}
	return true
}

// dominates implements the plan-list pruning rule: a dominates b when it is
// no more expensive, produces no more rows, and carries constraints no
// harder than b's. Uncosted (naive) plans neither dominate nor get
// dominated — they "cannot be pruned" (§3.1).
func dominates(a, b *subPlan) bool {
	if a.uncosted || b.uncosted {
		return false
	}
	return a.cost <= b.cost && a.rows <= b.rows && a.pendIDs&^b.pendIDs == 0 &&
		pendingEasier(a.pending, b.pending)
}

// planList holds the Pareto-optimal sub-plans for one relation set.
type planList struct {
	plans []*subPlan
}

// admits reports whether a costed plan with the given properties would be
// kept: no stored plan dominates it. The enumerator asks before it
// allocates the plan, which most of the time it then does not have to. An
// admitted plan's from is the first stored plan it dominates, or the
// list's length: add evicts from there. Dominance is transitive and no
// stored plan dominates another, so no plan after from can dominate it.
func (l *planList) admits(cost, rows float64, pending []pendingBF, pendIDs uint64) (from int, ok bool) {
	for i, q := range l.plans {
		if q.uncosted {
			continue
		}
		if q.cost <= cost && q.rows <= rows && q.pendIDs&^pendIDs == 0 && pendingEasier(q.pending, pending) {
			return 0, false
		}
		if cost <= q.cost && rows <= q.rows && pendIDs&^q.pendIDs == 0 && pendingEasier(pending, q.pending) {
			return i, true
		}
	}
	return len(l.plans), true
}

// add stores a plan the list admits, evicting the plans it dominates from
// position from on. The evicted joinPlans go to free, when given, for the
// caller to build its next plans in. That is safe while the list's set is
// still being enumerated: only plans of larger sets, which come later,
// point at this list's.
func (l *planList) add(p *subPlan, from int, free *[]*joinPlan) {
	plans := l.plans
	n := from
	if n < len(plans) {
		for _, q := range plans[n:] {
			if !dominates(p, q) {
				plans[n] = q
				n++
			} else if free != nil && q.owner != nil {
				*free = append(*free, q.owner)
			}
		}
		// Clear the evicted tail so the dropped plans can be collected.
		clear(plans[n:])
	}
	l.plans = append(plans[:n], p)
}

// insert adds p unless dominated; it evicts plans p dominates. Reports
// whether p was kept.
func (l *planList) insert(p *subPlan) bool {
	from := len(l.plans)
	if !p.uncosted {
		var ok bool
		if from, ok = l.admits(p.cost, p.rows, p.pending, p.pendIDs); !ok {
			return false
		}
	}
	l.add(p, from, nil)
	return true
}

// best returns the cheapest fully-resolved plan, or nil.
func (l *planList) best() *subPlan {
	var b *subPlan
	for _, p := range l.plans {
		if len(p.pending) > 0 || p.uncosted {
			continue
		}
		if b == nil || p.cost < b.cost {
			b = p
		}
	}
	return b
}

// len reports the number of stored plans.
func (l *planList) len() int { return len(l.plans) }
