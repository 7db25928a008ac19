package optimizer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"bfcbo/internal/cost"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/stats"
)

// Result is the outcome of one optimization run.
type Result struct {
	Plan *plan.Plan
	// PlanningTime is the wall-clock optimizer latency.
	PlanningTime time.Duration
	// Candidates is the number of Bloom filter candidates marked.
	Candidates int
	// Phase1Pairs counts the ordered join pairs visited by the first
	// bottom-up pass (zero outside BF-CBO).
	Phase1Pairs int
	// PlansKept is the total number of sub-plans retained across all plan
	// lists — the search-space size the paper's heuristics try to bound.
	PlansKept int
	// ConnectedSets is the number of relation sets that got a plan list:
	// the connected sub-graphs no non-inner unit splits, single relations
	// included.
	ConnectedSets int
	// JoinPairs is the number of legal ordered (outer, inner) pairs over
	// those sets — what every bottom-up pass iterates, in any mode.
	JoinPairs int
}

// ErrSearchSpaceExceeded is returned when a plan list outgrows
// Options.MaxPlansPerSet (realistically only in Naive mode).
var ErrSearchSpaceExceeded = errors.New("optimizer: plan list exceeded MaxPlansPerSet (naive search-space explosion)")

// maxRelations bounds the blocks Optimize accepts: the join graph index
// keeps one int32 per subset of the block's relations (256 MiB at the
// limit), and bottom-up enumeration of a graph that large would not
// finish anyway.
const maxRelations = 26

// Optimize plans a single SPJ block under the given options. The block is
// only read: the transitive closure of its join clauses lives in the
// optimizer's own index, so one block may be planned by several goroutines
// at once and plans the same way every time.
func Optimize(b *query.Block, opts Options) (*Result, error) {
	start := time.Now()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if len(b.Relations) > maxRelations {
		return nil, fmt.Errorf("optimizer: block %q joins %d relations; at most %d can be enumerated", b.Name, len(b.Relations), maxRelations)
	}
	if opts.MaxPlansPerSet <= 0 {
		opts.MaxPlansPerSet = 200_000
	}
	if err := opts.Cost.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: invalid cost parameters: %w", err)
	}
	o := newOptimizer(b, opts)
	o.seedPlans()
	if err := o.enumerate(); err != nil {
		return nil, err
	}
	best := o.lists[o.graph.ord(b.AllRels())].best()
	if best == nil {
		return nil, fmt.Errorf("optimizer: no complete plan found for block %q", b.Name)
	}
	p := &plan.Plan{Root: best.node, Mode: opts.Mode.String(), CostProfile: opts.Cost.Name}

	// §3.7: the post-processing application of Bloom filters is retained
	// for BF-Post (where it is the whole mechanism) and after BF-CBO
	// (where it may add filters costing could not plan).
	if opts.Mode == BFPost || (opts.Mode == BFCBO && !opts.DisablePostPass) {
		o.postProcess(p)
	}
	o.collectSpecs(p)

	res := &Result{
		Plan:          p,
		Candidates:    len(o.cands),
		Phase1Pairs:   o.phase1Pairs,
		ConnectedSets: len(o.graph.sets),
		JoinPairs:     len(o.graph.pairs),
	}
	for i := range o.lists {
		res.PlansKept += o.lists[i].len()
	}
	res.PlanningTime = time.Since(start)
	p.PlanningTime = res.PlanningTime.Seconds()
	return res, nil
}

type optimizer struct {
	// block is a private copy of the caller's block whose clause list is
	// the index's closed one; the estimator reads it too.
	block *query.Block
	graph *joinGraph
	est   *stats.Estimator
	opts  Options

	cands  []*candidate
	lists  []planList   // by set ordinal in graph.sets
	blooms []bloomAlloc // by Bloom filter id: every filter allocated

	phase1Pairs   int
	joinInputCard float64 // H8 accumulator

	// pending is combine's scratch buffer for a join's merged pending
	// list; enumerate sizes it for the longest list possible.
	pending []pendingBF
	// free holds the joinPlans the plan lists have evicted, for combine to
	// build its next plans in.
	free []*joinPlan
}

// newOptimizer indexes a validated block's join graph and sets up the
// state every pass shares. It is the only way to make an optimizer: the
// enumerator cannot run without the index.
func newOptimizer(b *query.Block, opts Options) *optimizer {
	g := newJoinGraph(b)
	closed := *b
	closed.Clauses = g.clauses
	return &optimizer{
		block: &closed,
		graph: g,
		est:   stats.NewEstimator(&closed),
		opts:  opts,
		lists: make([]planList, len(g.sets)),
	}
}

// seedPlans runs what comes before the bottom-up pass in the options' mode:
// candidate marking, BF-CBO's phase 1 and Heuristic 8, and the single
// relations' plan lists.
func (o *optimizer) seedPlans() {
	switch o.opts.Mode {
	case BFCBO:
		o.markCandidates()
		o.phase1()
		o.applyHeuristic8()
		o.makeBasePlans(true, false)
	case Naive:
		o.markCandidates()
		o.makeBasePlans(false, true)
	default:
		o.makeBasePlans(false, false)
	}
}

// ---------------------------------------------------------------------------
// Marking Bloom filter candidates (§3.3)

// bloomMayFilterProbe is §3.3's correctness restriction, for both
// orientations of a hash join: a Bloom filter built on the join's build side
// may filter its probe side unless the probe side is the preserve side of an
// anti or left join — those keep probe rows that find no match, the very
// rows a filter drops. When the preserve side builds (mirrored), the probe
// side is the unit, whose unmatched rows no join type keeps.
func bloomMayFilterProbe(jt query.JoinType, mirrored bool) bool {
	return mirrored || jt == query.Inner || jt == query.Semi
}

// markCandidates attaches Bloom filter candidates to base relations based on
// the block's hashable join clauses, applying H1/H2/H9 and the outer/anti
// join correctness restrictions.
func (o *optimizer) markCandidates() {
	h := o.opts.Heuristics
	seen := make(map[[2]int]map[[2]string]bool)
	add := func(applyRel int, applyCol string, buildRel int, buildCol string, mirrored, fromH9, equated bool) {
		if o.tooSmallToFilter(applyRel) {
			return
		}
		rk := [2]int{applyRel, buildRel}
		ck := [2]string{applyCol, buildCol}
		if seen[rk] == nil {
			seen[rk] = make(map[[2]string]bool)
		}
		if seen[rk][ck] {
			return
		}
		seen[rk][ck] = true
		o.cands = append(o.cands, &candidate{
			id:       len(o.cands),
			applyRel: applyRel, applyCol: applyCol,
			buildRel: buildRel, buildCol: buildCol,
			mirrored: mirrored, fromH9: fromH9, equated: equated,
		})
	}

	// Group inner-clause endpoints into equivalence classes to honour the
	// multi-way rule: "we only consider building a Bloom filter from the
	// smallest table and applying it to the larger tables" (§3.3).
	inMultiway := make(map[query.Endpoint]bool)
	for _, cls := range o.candidateClasses() {
		if len(cls) < 3 {
			continue
		}
		smallest := cls[0]
		for _, e := range cls[1:] {
			if o.est.BaseRows(e.Rel) < o.est.BaseRows(smallest.Rel) {
				smallest = e
			}
		}
		for _, e := range cls {
			inMultiway[e] = true
			if e == smallest {
				continue
			}
			if h.H1LargerOnly && !h.H9BothSides &&
				o.est.BaseRows(e.Rel) < o.est.BaseRows(smallest.Rel) {
				continue
			}
			add(e.Rel, e.Col, smallest.Rel, smallest.Col, false, false, true)
		}
	}

	for _, c := range o.block.Clauses {
		if c.Type != query.Inner {
			// The clause's left side preserves rows, its right side is the
			// unit; whichever of the two a hash join builds on may filter
			// the other, where bloomMayFilterProbe allows it.
			if bloomMayFilterProbe(c.Type, false) {
				add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, false, false, false)
			}
			if bloomMayFilterProbe(c.Type, true) {
				add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, true, false, false)
			}
			continue
		}
		// Inner clause: skip endpoints already covered by a multi-way
		// class; otherwise H1 (or H9) decides the direction(s).
		if inMultiway[query.Endpoint{Rel: c.LeftRel, Col: c.LeftCol}] ||
			inMultiway[query.Endpoint{Rel: c.RightRel, Col: c.RightCol}] {
			continue
		}
		lRows, rRows := o.est.BaseRows(c.LeftRel), o.est.BaseRows(c.RightRel)
		if h.H9BothSides {
			add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, false, lRows < rRows, true)
			add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, false, rRows < lRows, true)
			continue
		}
		if h.H1LargerOnly {
			if lRows >= rRows {
				add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, false, false, true)
			} else {
				add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, false, false, true)
			}
			continue
		}
		add(c.LeftRel, c.LeftCol, c.RightRel, c.RightCol, false, false, true)
		add(c.RightRel, c.RightCol, c.LeftRel, c.LeftCol, false, false, true)
	}

	markImpliable(o.cands)
}

// tooSmallToFilter is Heuristic 2: a relation estimated at no more than
// H2MinApplyRows rows is not worth filtering.
func (o *optimizer) tooSmallToFilter(rel int) bool {
	h2 := o.opts.Heuristics.H2MinApplyRows
	return h2 > 0 && o.est.BaseRows(rel) <= h2
}

// candidateClasses returns the index's equivalence classes in the order
// candidates are numbered in: by the first member's relation index compared
// as decimal text ("10" sorts before "2"), then by its column. Candidate ids
// fix Bloom filter ids and which δ combinations a capped enumeration keeps,
// so the order is kept as it has always been rather than made numeric.
func (o *optimizer) candidateClasses() [][]query.Endpoint {
	classes := slices.Clone(o.graph.classes)
	slices.SortFunc(classes, func(x, y []query.Endpoint) int {
		if c := cmp.Compare(strconv.Itoa(x[0].Rel), strconv.Itoa(y[0].Rel)); c != 0 {
			return c
		}
		return cmp.Compare(x[0].Col, y[0].Col)
	})
	return classes
}

// ---------------------------------------------------------------------------
// First bottom-up phase (§3.4): populate Δ without costing anything.

// phase1 walks the pair list once to collect, per candidate, the build
// sides δ it can be resolved against.
func (o *optimizer) phase1() {
	g, h := o.graph, o.opts.Heuristics
	o.phase1Pairs = len(g.pairs)
	// Whether a build side δ is valid for a candidate depends on the two
	// alone, not on the outer it was seen with: decide each (candidate, δ)
	// once, at its first visit, which is also its place in Δ.
	words := (len(g.sets) + 63) / 64
	decided := make([]uint64, words*len(o.cands))
	for i := range g.pairs {
		p := &g.pairs[i]
		outer, inner := g.sets[p.outer], g.sets[p.inner]
		if h.H8MinJoinInputCard > 0 {
			o.joinInputCard += o.est.JoinCard(outer) + o.est.JoinCard(inner)
		}
		for ci, c := range o.cands {
			if !outer.Has(c.applyRel) || !inner.Has(c.buildRel) {
				continue
			}
			word, bit := &decided[ci*words+int(p.inner>>6)], uint64(1)<<(uint(p.inner)&63)
			if *word&bit != 0 {
				continue
			}
			*word |= bit
			// Heuristic 3: an FK apply column referencing a PK build
			// column that stays lossless under this δ will filter
			// nothing — prune the δ.
			if h.H3FKLosslessPK && o.est.LosslessPK(c.applyRel, c.applyCol, c.buildRel, c.buildCol, inner) {
				continue
			}
			// Heuristic 9's guard: only keep δs whose build side is
			// smaller than the apply relation.
			if c.fromH9 && o.est.JoinCard(inner) >= o.est.BaseRows(c.applyRel) {
				continue
			}
			c.deltas = append(c.deltas, inner)
		}
	}
}

// applyHeuristic8 clears all candidates when the observed total join-input
// cardinality is below the threshold (quick transactional queries do not
// deserve an expanded search space).
func (o *optimizer) applyHeuristic8() {
	h := o.opts.Heuristics
	if h.H8MinJoinInputCard > 0 && o.joinInputCard < h.H8MinJoinInputCard {
		for _, c := range o.cands {
			c.deltas = nil
		}
	}
}

// ---------------------------------------------------------------------------
// Base plan construction, including Bloom filter sub-plan costing (§3.5).

// fractions returns the FPR-free selectivity Heuristic 6 reads and the
// Bloom reduction factor of candidate c under d.
func (o *optimizer) fractions(c *candidate, d query.RelSet) (semi, kept float64) {
	semi = o.est.SemiJoinFraction(c.applyRel, c.applyCol, c.buildRel, c.buildCol, d)
	return semi, stats.BloomKept(semi)
}

// admitDelta is Heuristics 6 and 5 for candidate c under build side d: the
// filter must be selective enough and fit the size budget. It returns the
// filter's kept fraction and build side NDV.
func (o *optimizer) admitDelta(c *candidate, d query.RelSet) (kept, ndv float64, ok bool) {
	h := o.opts.Heuristics
	semi, kept := o.fractions(c, d)
	if h.H6MaxKeepFraction > 0 && semi > h.H6MaxKeepFraction {
		return 0, 0, false
	}
	ndv = o.est.BuildNDV(c.buildRel, c.buildCol, d)
	if h.H5MaxBuildNDV > 0 && ndv > h.H5MaxBuildNDV {
		return 0, 0, false
	}
	return kept, ndv, true
}

// scanCost prices a base scan of rel that tests nBloom Bloom filters on the
// rows its predicate keeps.
func (o *optimizer) scanCost(rel int, nBloom int) float64 {
	r := o.block.Relations[rel]
	ops := 0
	if r.Pred != nil {
		ops = 1
	}
	return o.opts.Cost.Scan(r.Table.RowCount, ops, o.est.BaseRows(rel), nBloom)
}

func (o *optimizer) newScanNode(rel int, rows, cst float64, bloomIDs []int) *plan.Scan {
	r := o.block.Relations[rel]
	return &plan.Scan{
		Rel: rel, Alias: r.Alias, Table: r.Table.Name, Pred: r.Pred,
		ApplyBlooms: bloomIDs, Rows: rows, Cost: cst,
	}
}

// makeBasePlans seeds the plan lists for single relations. withBF adds the
// costed Bloom filter sub-plans of BF-CBO; naive adds the uncosted
// unknown-δ sub-plans of the strawman.
func (o *optimizer) makeBasePlans(withBF, naive bool) {
	h := o.opts.Heuristics
	for rel := range o.block.Relations {
		l := &o.lists[rel] // a relation's index is its singleton's ordinal
		rows, cst := o.est.BaseRows(rel), o.scanCost(rel, 0)
		l.insert(&subPlan{rows: rows, cost: cst, node: o.newScanNode(rel, rows, cst, nil)})

		if naive {
			o.addNaiveBasePlans(rel, l)
			continue
		}
		if !withBF {
			continue
		}

		// Collect this relation's candidates and their surviving δs, each
		// estimated once.
		var choices []bloomChoice
		for _, c := range o.cands {
			if c.applyRel != rel || len(c.deltas) == 0 {
				continue
			}
			var ds []bloomDelta
			for _, d := range c.deltas {
				if kept, ndv, ok := o.admitDelta(c, d); ok {
					ds = append(ds, bloomDelta{delta: d, kept: kept, ndv: ndv})
				}
			}
			if len(ds) == 0 {
				continue
			}
			// Strongest δ first, so capped enumeration keeps the best.
			slices.SortFunc(ds, func(x, y bloomDelta) int {
				if d := cmp.Compare(x.kept, y.kept); d != 0 {
					return d
				}
				return cmp.Compare(x.delta.Count(), y.delta.Count())
			})
			choices = append(choices, bloomChoice{c, ds})
		}
		if len(choices) == 0 {
			continue
		}

		// Heuristic 4: all candidates are applied simultaneously; we only
		// enumerate combinations of δs (capped). A mirrored candidate is the
		// exception: applying it commits the unit's join to building its
		// preserve side, so the relation's other candidates are also
		// offered without it — or the new orientation would cost BF-CBO
		// plans it had before.
		bfPlans := o.appendBloomScans(nil, rel, rows, choices)
		plain := slices.DeleteFunc(slices.Clone(choices), func(ch bloomChoice) bool { return ch.cand.mirrored })
		if len(plain) > 0 && len(plain) < len(choices) {
			bfPlans = o.appendBloomScans(bfPlans, rel, rows, plain)
		}
		// Heuristic 7: cap the number of Bloom filter sub-plans kept for
		// one relation, retaining the one with fewest rows (then cheapest).
		if h.H7MaxSubPlans > 0 && len(bfPlans) > h.H7MaxSubPlans {
			slices.SortFunc(bfPlans, func(x, y *subPlan) int {
				if c := cmp.Compare(x.rows, y.rows); c != 0 {
					return c
				}
				return cmp.Compare(x.cost, y.cost)
			})
			bfPlans = bfPlans[:1]
		}
		for _, p := range bfPlans {
			l.insert(p)
		}
	}
}

// bloomChoice is one candidate of a relation with the δs that survived
// Heuristics 5 and 6, strongest first.
type bloomChoice struct {
	cand   *candidate
	deltas []bloomDelta
}

// bloomDelta is one build side δ of a candidate with the filter's
// estimates under it: its kept fraction and its build side's NDV.
type bloomDelta struct {
	delta query.RelSet
	kept  float64
	ndv   float64
}

// appendBloomScans appends one Bloom filter scan sub-plan of rel per
// combination of the choices' δs (at most maxCombos), every choice applied
// in each.
func (o *optimizer) appendBloomScans(bfPlans []*subPlan, rel int, rows float64, choices []bloomChoice) []*subPlan {
	const maxCombos = 32
	combos := [][]bloomDelta{nil}
	for _, ch := range choices {
		next := make([][]bloomDelta, 0, min(maxCombos, len(combos)*len(ch.deltas)))
		for _, base := range combos {
			for _, d := range ch.deltas {
				next = append(next, append(append(make([]bloomDelta, 0, len(base)+1), base...), d))
				if len(next) >= maxCombos {
					break
				}
			}
			if len(next) >= maxCombos {
				break
			}
		}
		combos = next
	}
	for _, combo := range combos {
		pending := make([]pendingBF, len(choices))
		prodRows := rows
		ids := make([]int, len(choices))
		for i, ch := range choices {
			d := combo[i]
			id := o.allocBloom(ch.cand, d.delta, d.ndv)
			pending[i] = pendingBF{cand: ch.cand, delta: d.delta, factor: d.kept, bloomID: id}
			prodRows *= d.kept
			ids[i] = id
		}
		sortPending(pending)
		cst := o.scanCost(rel, len(pending))
		pendIDs, pendNeed := summarizePending(pending)
		bfPlans = append(bfPlans, &subPlan{
			rows: prodRows, cost: cst,
			pending: pending, pendIDs: pendIDs, pendNeed: pendNeed,
			node: o.newScanNode(rel, prodRows, cst, ids),
		})
	}
	return bfPlans
}

// bloomAlloc is one allocated Bloom filter: candidate cand built over delta
// to hold ndv keys. A Naive filter is allocated before its δ is known, with
// delta zero.
type bloomAlloc struct {
	cand  *candidate
	delta query.RelSet
	ndv   float64
}

// allocBloom records a new filter, candidate c built over delta to hold
// ndv keys, and returns its id.
func (o *optimizer) allocBloom(c *candidate, delta query.RelSet, ndv float64) int {
	o.blooms = append(o.blooms, bloomAlloc{cand: c, delta: delta, ndv: ndv})
	return len(o.blooms) - 1
}

// ---------------------------------------------------------------------------
// Shared bottom-up enumeration (plain CBO, Naive, and phase 2 of BF-CBO,
// §3.6).

// enumerate runs one bottom-up pass over the index's pair list, costing
// every combination of sub-plans that can join, in the same order as a
// walk over all of them: per pair it picks the usable inner plans once,
// and per outer plan it classifies the pending filters once.
func (o *optimizer) enumerate() error {
	g := o.graph
	o.pending = make([]pendingBF, 0, len(o.cands))
	var usable []*subPlan
	site := joinSite{set: -1}
	for i := range g.pairs {
		p := &g.pairs[i]
		site.outer, site.inner = g.sets[p.outer], g.sets[p.inner]
		// Inner-side pending filters must remain resolvable: their build
		// relations may not already sit inside the joined set's outer half.
		usable = usable[:0]
		for _, pb := range o.lists[p.inner].plans {
			if !pb.pendNeed.Overlaps(site.outer) {
				usable = append(usable, pb)
			}
		}
		if len(usable) == 0 {
			continue
		}
		if p.set != site.set {
			site.set = p.set
			site.card = o.est.JoinCard(g.sets[p.set])
		}
		site.joinType, site.mirrored, site.conds = p.joinType, p.mirrored, g.pairConds(p)
		list := &o.lists[p.set]
		for _, pa := range o.lists[p.outer].plans {
			out, legal := o.classify(&site, pa)
			for _, pb := range usable {
				var err error
				switch {
				case pa.uncosted || pb.uncosted:
					err = o.combineNaive(&site, pa, pb, list)
				case legal && out.require.SubsetOf(pb.pendNeed):
					err = o.combine(&site, &out, pb, list)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// joinSite is one ordered join pair as combine sees it.
type joinSite struct {
	set          int32 // ordinal of the joined set
	outer, inner query.RelSet
	joinType     query.JoinType
	mirrored     bool // the pair's outer is the clause's unit, its inner the preserve side
	conds        []plan.Cond
	card         float64 // the estimator's canonical cardinality of the joined set
}

// outerSide is a costed outer plan's pending Bloom filters classified
// against a join pair's inner set, once for all the inner plans it meets.
type outerSide struct {
	plan *subPlan
	// carried counts the filters the join passes upwards (see carries);
	// ids and need summarise them.
	carried int
	ids     uint64
	need    query.RelSet
	// require is what partial overlaps leave outstanding: the inner plan's
	// own pending filters must promise these relations.
	require query.RelSet
}

// classify sorts a costed outer plan's pending filters, whose δs are all
// known, into those the join carries and those it resolves, and reports
// false when a partial overlap makes the join illegal whatever the inner
// plan (or pa is uncosted: combineNaive takes those).
func (o *optimizer) classify(j *joinSite, pa *subPlan) (out outerSide, legal bool) {
	if pa.uncosted {
		return out, false
	}
	if !pa.pendNeed.Overlaps(j.inner) {
		// Nothing resolves here: the join carries every filter.
		return outerSide{plan: pa, carried: len(pa.pending), ids: pa.pendIDs, need: pa.pendNeed}, true
	}
	out.plan = pa
	for _, p := range pa.pending {
		switch {
		case carries(p, j.inner):
			out.carried++
			out.ids |= 1 << (uint(p.cand.id) & 63)
			out.need = out.need.Union(p.delta)
		case p.delta.SubsetOf(j.inner):
			// Fully resolvable here; this join builds the filter.
		default:
			// Partial overlap: only legal under the Fig. 3 exception —
			// the build relation itself must be on this build side (its
			// column populates the filter here), and the outstanding δ
			// relations must be promised by the inner side's own pending
			// filters. Otherwise Fig. 3(b): an illegal combination.
			if !j.inner.Has(p.cand.buildRel) {
				return out, false
			}
			out.require = out.require.Union(p.delta.Minus(j.inner))
		}
	}
	return out, true
}

// carries reports whether a join with the given inner side passes p, a
// costed plan's filter, upwards: p's δ lies wholly outside it.
func carries(p pendingBF, inner query.RelSet) bool { return !p.delta.Overlaps(inner) }

// combine implements §3.6's sub-plan join rules for a classified outer plan
// and an inner plan that can join it: it works out the join's rows, pending
// list and cost, and asks the plan list whether such a plan would survive
// before it allocates anything.
func (o *optimizer) combine(j *joinSite, out *outerSide, pb *subPlan, list *planList) error {
	// Pending lists are immutable, so a join that carries one side's list
	// unchanged shares it; only a real merge, in candidate order into the
	// scratch buffer (a plan holds at most one pending filter per
	// candidate, so it never grows), needs a copy, if kept.
	pa := out.plan
	pending, scratch := pb.pending, false
	switch {
	case out.carried == 0:
	case len(pb.pending) == 0 && out.carried == len(pa.pending):
		pending = pa.pending
	default:
		merged, rest := o.pending[:0], pb.pending
		for _, p := range pa.pending {
			if !carries(p, j.inner) {
				continue
			}
			for len(rest) > 0 && rest[0].cand.id < p.cand.id {
				merged, rest = append(merged, rest[0]), rest[1:]
			}
			merged = append(merged, p)
		}
		pending, scratch = append(merged, rest...), true
	}
	pendIDs, pendNeed := pb.pendIDs|out.ids, pb.pendNeed.Union(out.need)

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
		return nil
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
	// The join builds every filter of the outer plan it does not carry.
	if n := len(pa.pending) - out.carried; n > 0 {
		kept.join.BuildBlooms = make([]int, 0, n)
		for _, p := range pa.pending {
			if !carries(p, j.inner) {
				kept.join.BuildBlooms = append(kept.join.BuildBlooms, p.bloomID)
			}
		}
	}
	if scratch {
		kept.pending = slices.Clone(pending)
	}
	kept.node = &kept.join
	list.add(&kept.subPlan, from, &o.free)
	return o.overCap(list)
}

// overCap reports ErrSearchSpaceExceeded once a plan list has outgrown
// Options.MaxPlansPerSet. It is asked right after a list grows, the only
// time a list can first outgrow it.
func (o *optimizer) overCap(l *planList) error {
	if l.len() > o.opts.MaxPlansPerSet {
		return ErrSearchSpaceExceeded
	}
	return nil
}

// hashJoinCost prices a hash join of outerRows probing innerRows. A mirrored
// join emits from its build side after the last probe: one more pass over
// the build rows, priced as a scan of them.
func (o *optimizer) hashJoinCost(mirrored bool, outerRows, innerRows float64) (float64, cost.Streaming) {
	c, streaming := o.opts.Cost.HashJoin(outerRows, innerRows)
	if mirrored {
		c += innerRows * o.opts.Cost.CPUTupleCost
	}
	return c, streaming
}

// collectSpecs records in p the spec of every filter its joins build, in id
// order. A Naive filter, whose δ was unknown when it was allocated, takes
// the inner side of the join that builds it.
func (o *optimizer) collectSpecs(p *plan.Plan) {
	var specs []plan.BloomSpec
	for _, j := range p.Joins() {
		for _, id := range j.BuildBlooms {
			b := o.blooms[id]
			c := b.cand
			if b.delta.Empty() {
				b.delta = j.Inner.Rels()
				b.ndv = o.est.BuildNDV(c.buildRel, c.buildCol, b.delta)
			}
			specs = append(specs, plan.BloomSpec{
				ID:       id,
				ApplyRel: c.applyRel, ApplyCol: c.applyCol,
				BuildRel: c.buildRel, BuildCol: c.buildCol,
				Delta:       b.delta,
				EstBuildNDV: b.ndv,
			})
		}
	}
	slices.SortFunc(specs, func(x, y plan.BloomSpec) int { return cmp.Compare(x.ID, y.ID) })
	p.Blooms = specs
}
