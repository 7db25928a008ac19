package optimizer

import (
	"math/bits"
	"slices"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// joinGraph is the optimizer's private index of one block's join graph,
// built once per Optimize. Both BF-CBO phases, plain CBO and Naive walk its
// pair list; nothing in the enumeration loops looks at a clause again.
//
// Visit-order contract: sets are ordered by population count, then
// numerically; a set's pairs are ordered by descending outer-candidate
// submask a (a always holds the set's lowest relation), (a, b) before
// (b, a); a non-inner split's one legal orientation comes before its
// mirrored twin. Plan lists break cost ties by insertion order, so this
// order is part of the optimizer's observable behaviour: change it and
// equal-cost plans swap.
type joinGraph struct {
	// clauses is the block's clause list followed by the transitive closure
	// of its inner equi-joins (marked Derived), in a canonical order.
	clauses []query.JoinClause
	// classes are the inner-clause endpoint equivalence classes the closure
	// was derived from; markCandidates reads the multi-way ones.
	classes [][]query.Endpoint
	// sets are the plannable relation sets — connected, and holding every
	// non-inner unit whole, not at all, or lying inside it — in visit
	// order. The first len(Relations) are the singletons, so a relation's
	// index is also its set's ordinal.
	sets []query.RelSet
	// ords maps a relation set to its ordinal in sets plus one; zero means
	// not connected, -1 connected but split by a non-inner unit's fence.
	ords []int32
	// pairs are the legal ordered join pairs in visit order.
	pairs []joinPair
	// conds backs every pair's join conditions. It starts with two entries
	// per clause — clause i with its left side as the outer at 2i, the
	// mirror image at 2i+1 — which single-clause pairs point at directly.
	conds []plan.Cond
}

// joinPair is one legal (outer, inner) orientation of a split of a set,
// with everything the clause list says about it precomputed.
type joinPair struct {
	set, outer, inner int32 // ordinals into joinGraph.sets
	condOff, condLen  int32 // the pair's conditions in joinGraph.conds
	// mirrored marks a non-inner pair whose outer is the clause's whole
	// unit and whose inner is its preserve side: a hash join only, built on
	// the preserved rows (plan.Join.BuildPreserved). It sits in the padding
	// before joinType: a pair stays 32 bytes.
	mirrored bool
	joinType query.JoinType
}

// newJoinGraph indexes a validated block. The block is read, never written.
func newJoinGraph(b *query.Block) *joinGraph {
	g := &joinGraph{}
	g.clauses, g.classes = query.TransitiveClosure(b.Clauses)

	adj := make([]query.RelSet, len(b.Relations))
	var fences []query.RelSet
	g.conds = make([]plan.Cond, 0, 2*len(g.clauses))
	for _, c := range g.clauses {
		adj[c.LeftRel] = adj[c.LeftRel].Add(c.RightRel)
		adj[c.RightRel] = adj[c.RightRel].Add(c.LeftRel)
		if c.Type != query.Inner && !slices.Contains(fences, c.SubRels) {
			fences = append(fences, c.SubRels)
		}
		cond := plan.Cond{OuterRel: c.LeftRel, OuterCol: c.LeftCol, InnerRel: c.RightRel, InnerCol: c.RightCol}
		g.conds = append(g.conds, cond, flipCond(cond))
	}
	g.enumerateSets(adj, fences)
	g.enumeratePairs()
	return g
}

// enumerateSets grows the connected relation sets one relation at a time
// from the singletons — work proportional to the number of connected sets,
// not to 2^n — and keeps, in visit order, those no fence splits.
func (g *joinGraph) enumerateSets(adj, fences []query.RelSet) {
	n := len(adj)
	g.ords = make([]int32, 1<<uint(n))
	level := make([]query.RelSet, n)
	for i := range level {
		level[i] = query.NewRelSet(i)
	}
	var next []query.RelSet
	for {
		for _, s := range level {
			if fenced(s, fences) {
				continue
			}
			g.sets = append(g.sets, s)
			g.ords[s] = int32(len(g.sets))
		}
		next = next[:0]
		for _, s := range level {
			var reach query.RelSet
			for t := s; t != 0; t &= t - 1 {
				reach |= adj[bits.TrailingZeros64(uint64(t))]
			}
			for t := reach &^ s; t != 0; t &= t - 1 {
				grown := s | t&-t
				if g.ords[grown] == 0 {
					g.ords[grown] = -1
					next = append(next, grown)
				}
			}
		}
		if len(next) == 0 {
			return
		}
		slices.Sort(next)
		level, next = next, level
	}
}

// fenced reports whether s splits a non-inner unit: it holds some but not
// all of a unit's relations and also reaches outside the unit. Each
// subquery/nullable side is an indivisible planning unit, the standard
// conservative rule for semi/anti/outer joins.
func fenced(s query.RelSet, fences []query.RelSet) bool {
	for _, f := range fences {
		if in := s & f; in != 0 && in != f && s&^f != 0 {
			return true
		}
	}
	return false
}

// enumeratePairs lists, for every plannable set of two or more relations,
// its splits into two plannable halves (which share a clause, the set being
// connected) in both orientations; a split a non-inner clause spans keeps
// both only when one side is the clause's whole unit, the second of them
// mirrored.
func (g *joinGraph) enumeratePairs() {
	// Count first: grown by appending, the list would be copied — and
	// allocated — several times over.
	splits := 0
	g.forEachSplit(func(int32, query.RelSet, query.RelSet, int32, int32) { splits++ })
	g.pairs = make([]joinPair, 0, 2*splits)
	g.forEachSplit(g.addSplit)
}

// forEachSplit visits the splits (a, b) of every plannable set into two
// plannable halves in visit order, passing the ordinals of the set, of a and
// of b.
func (g *joinGraph) forEachSplit(fn func(set int32, a, b query.RelSet, ao, bo int32)) {
	for so, s := range g.sets {
		if s.Single() {
			continue
		}
		low := s & -s
		rest := s ^ low
		for t := (rest - 1) & rest; ; t = (t - 1) & rest {
			a := t | low
			b := s ^ a
			if ao, bo := g.ords[a], g.ords[b]; ao > 0 && bo > 0 {
				fn(int32(so), a, b, ao-1, bo-1)
			}
			if t == 0 {
				break
			}
		}
	}
}

// addSplit appends the legal orientations of the split (a, b). An
// orientation is legal when every non-inner clause spanning the split has
// its preserve side on the outer and its whole unit as the inner; the
// pair's join type is that of the first such clause, else Inner. A
// non-inner split has one such orientation at most, and is followed by the
// other one marked mirrored: the same join with the preserve side building.
func (g *joinGraph) addSplit(set int32, a, b query.RelSet, ao, bo int32) {
	// A split stores at most two conditions per clause. Make room by
	// doubling: append's 1.25x steps would copy a large buffer many times.
	if cap(g.conds)-len(g.conds) < 2*len(g.clauses) {
		g.conds = slices.Grow(g.conds, cap(g.conds))
	}
	abOK, baOK := true, true
	jt := query.Inner
	start, entry := len(g.conds), 0
	for ci, c := range g.clauses {
		aLeft := a.Has(c.LeftRel) && b.Has(c.RightRel)
		if !aLeft && !(b.Has(c.LeftRel) && a.Has(c.RightRel)) {
			continue
		}
		if c.Type != query.Inner {
			if jt == query.Inner {
				jt = c.Type
			}
			abOK = abOK && aLeft && b == c.SubRels
			baOK = baOK && !aLeft && a == c.SubRels
		}
		// The clause's own entry for the (a, b) orientation; its
		// neighbour, entry^1, is the one for (b, a).
		entry = 2 * ci
		if !aLeft {
			entry++
		}
		g.conds = append(g.conds, g.conds[entry])
	}
	n := len(g.conds) - start
	ab, ba := start, start+n
	switch {
	case !abOK && !baOK:
		g.conds = g.conds[:start]
		return
	case n == 1:
		// One spanning clause, as on every split of a tree-shaped graph:
		// the pairs share the clause's entries and store nothing.
		ab, ba = entry, entry^1
		g.conds = g.conds[:start]
	case baOK || jt != query.Inner:
		for _, c := range g.conds[ab:ba] {
			g.conds = append(g.conds, flipCond(c))
		}
	}
	abPair := joinPair{set: set, outer: ao, inner: bo, condOff: int32(ab), condLen: int32(n), joinType: jt}
	baPair := joinPair{set: set, outer: bo, inner: ao, condOff: int32(ba), condLen: int32(n), joinType: jt}
	switch {
	case jt == query.Inner:
		g.pairs = append(g.pairs, abPair, baPair)
	case abOK:
		baPair.mirrored = true
		g.pairs = append(g.pairs, abPair, baPair)
	default:
		abPair.mirrored = true
		g.pairs = append(g.pairs, baPair, abPair)
	}
}

// flipCond swaps a condition's outer and inner sides.
func flipCond(c plan.Cond) plan.Cond {
	return plan.Cond{OuterRel: c.InnerRel, OuterCol: c.InnerCol, InnerRel: c.OuterRel, InnerCol: c.OuterCol}
}

// pairConds returns the pair's join conditions, capacity-clipped so an
// append by a later pass cannot run into the next pair's.
func (g *joinGraph) pairConds(p *joinPair) []plan.Cond {
	end := p.condOff + p.condLen
	return g.conds[p.condOff:end:end]
}

// ord returns the ordinal of s in sets, or -1 if s is not plannable.
func (g *joinGraph) ord(s query.RelSet) int {
	if uint64(s) >= uint64(len(g.ords)) || g.ords[s] <= 0 {
		return -1
	}
	return int(g.ords[s]) - 1
}
