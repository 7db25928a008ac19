package optimizer

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

// The enumerator's previous graph walk, kept verbatim as a brute-force
// oracle: it scans the clause list for every subset and every split, which
// is what made it slow and what makes it obviously right. The index's pair
// list must equal this walk, visit order included.

// oracleClausesBetween returns the clauses with one endpoint in each of the
// two disjoint sets.
func oracleClausesBetween(b *query.Block, s1, s2 query.RelSet) []query.JoinClause {
	var out []query.JoinClause
	for _, c := range b.Clauses {
		switch {
		case s1.Has(c.LeftRel) && s2.Has(c.RightRel):
			out = append(out, c)
		case s2.Has(c.LeftRel) && s1.Has(c.RightRel):
			// Non-inner clauses are direction-sensitive; keep orientation
			// but let the caller see the clause (it checks sides itself).
			out = append(out, c)
		}
	}
	return out
}

// oracleConnectedSet reports whether the relations in s form a connected
// subgraph of the join graph.
func oracleConnectedSet(b *query.Block, s query.RelSet) bool {
	if s.Empty() {
		return false
	}
	if s.Single() {
		return true
	}
	reach := query.NewRelSet(s.Members()[0])
	for changed := true; changed; {
		changed = false
		for _, c := range b.Clauses {
			if !s.Has(c.LeftRel) || !s.Has(c.RightRel) {
				continue
			}
			l, r := reach.Has(c.LeftRel), reach.Has(c.RightRel)
			if l != r {
				reach = reach.Add(c.LeftRel).Add(c.RightRel)
				changed = true
			}
		}
	}
	return reach == s
}

// oracleNonInnerUnitOK enforces the block's reordering fence: a candidate
// subset s is plan-able only if, for every non-inner clause, s contains none
// of the clause's SubRels, all of them, or is itself fully inside them.
func oracleNonInnerUnitOK(b *query.Block, s query.RelSet) bool {
	for _, c := range b.Clauses {
		if c.Type == query.Inner {
			continue
		}
		inter := s & c.SubRels
		if inter.Empty() || inter == c.SubRels || s.SubsetOf(c.SubRels) {
			continue
		}
		return false
	}
	return true
}

// subsetsByPopcount returns all non-empty subsets of universe with at least
// minSize members, ordered by population count (bottom-up DP order).
func subsetsByPopcount(universe query.RelSet, minSize int) []query.RelSet {
	var subs []query.RelSet
	u := uint64(universe)
	for s := u; ; s = (s - 1) & u {
		if bits.OnesCount64(s) >= minSize {
			subs = append(subs, query.RelSet(s))
		}
		if s == 0 {
			break
		}
	}
	sort.Slice(subs, func(i, j int) bool {
		ci, cj := subs[i].Count(), subs[j].Count()
		if ci != cj {
			return ci < cj
		}
		return subs[i] < subs[j]
	})
	return subs
}

// oracleForEachSplit visits each unordered split of s into two non-empty,
// connected halves that are joinable (share a clause) and respect the
// non-inner units.
func oracleForEachSplit(blk *query.Block, s query.RelSet, fn func(a, b query.RelSet)) {
	u, lo := uint64(s), s.Members()[0]
	for sub := (u - 1) & u; sub != 0; sub = (sub - 1) & u {
		a := query.RelSet(sub)
		if !a.Has(lo) {
			continue
		}
		b := s.Minus(a)
		if b.Empty() {
			continue
		}
		if !oracleConnectedSet(blk, a) || !oracleConnectedSet(blk, b) {
			continue
		}
		if !oracleNonInnerUnitOK(blk, a) || !oracleNonInnerUnitOK(blk, b) {
			continue
		}
		if len(oracleClausesBetween(blk, a, b)) == 0 {
			continue
		}
		fn(a, b)
	}
}

// oracleLegalJoin reports whether (outer, inner) is a valid orientation:
// every non-inner clause spanning the split must have its preserve side on
// the outer and its entire subquery unit as the inner.
func oracleLegalJoin(b *query.Block, outer, inner query.RelSet) bool {
	for _, c := range oracleClausesBetween(b, outer, inner) {
		if c.Type == query.Inner {
			continue
		}
		if !outer.Has(c.LeftRel) || inner != c.SubRels {
			return false
		}
	}
	return true
}

// oracleSpanningJoinType returns the join type of the (outer, inner) pair:
// the non-inner clause type if one spans the split, else Inner.
func oracleSpanningJoinType(b *query.Block, outer, inner query.RelSet) query.JoinType {
	for _, c := range oracleClausesBetween(b, outer, inner) {
		if c.Type != query.Inner {
			return c.Type
		}
	}
	return query.Inner
}

// oracleConds builds the physical equi-join conditions for the (outer,
// inner) orientation.
func oracleConds(b *query.Block, outer, inner query.RelSet) []plan.Cond {
	var out []plan.Cond
	for _, c := range oracleClausesBetween(b, outer, inner) {
		if outer.Has(c.LeftRel) {
			out = append(out, plan.Cond{OuterRel: c.LeftRel, OuterCol: c.LeftCol, InnerRel: c.RightRel, InnerCol: c.RightCol})
		} else {
			out = append(out, plan.Cond{OuterRel: c.RightRel, OuterCol: c.RightCol, InnerRel: c.LeftRel, InnerCol: c.LeftCol})
		}
	}
	return out
}

// oraclePair is one ordered join pair as the old walk produced it.
type oraclePair struct {
	set, outer, inner query.RelSet
	joinType          query.JoinType
	mirrored          bool
	conds             []plan.Cond
}

// oraclePairs runs the old enumerate/phase1 walk over a block whose clause
// list is already closed, returning the plannable sets of two or more
// relations and the legal ordered pairs, both in visit order.
func oraclePairs(b *query.Block) (sets []query.RelSet, pairs []oraclePair) {
	for _, s := range subsetsByPopcount(b.AllRels(), 2) {
		if !oracleConnectedSet(b, s) || !oracleNonInnerUnitOK(b, s) {
			continue
		}
		sets = append(sets, s)
		oracleForEachSplit(b, s, func(x, y query.RelSet) {
			for _, or := range [2][2]query.RelSet{{x, y}, {y, x}} {
				outer, inner := or[0], or[1]
				if !oracleLegalJoin(b, outer, inner) {
					continue
				}
				jt := oracleSpanningJoinType(b, outer, inner)
				pairs = append(pairs, oraclePair{s, outer, inner, jt, false, oracleConds(b, outer, inner)})
				if jt != query.Inner {
					// The one legal orientation of a non-inner split, then
					// the same join built on its preserve side.
					pairs = append(pairs, oraclePair{s, inner, outer, jt, true, oracleConds(b, inner, outer)})
				}
			}
		})
	}
	return sets, pairs
}

// checkIndexAgainstOracle compares the index built for b with the old walk
// over the same closed clause list.
func checkIndexAgainstOracle(t *testing.T, b *query.Block) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	g := newJoinGraph(b)
	closed := *b
	closed.Clauses = g.clauses
	wantSets, wantPairs := oraclePairs(&closed)

	n := len(b.Relations)
	for i, s := range g.sets[:n] {
		if s != query.NewRelSet(i) {
			t.Fatalf("%s: set ordinal %d is %s, want the singleton", b.Name, i, s)
		}
	}
	gotSets := g.sets[n:]
	if len(gotSets) != len(wantSets) {
		t.Fatalf("%s: %d plannable sets, oracle has %d", b.Name, len(gotSets), len(wantSets))
	}
	for i := range gotSets {
		if gotSets[i] != wantSets[i] {
			t.Fatalf("%s: set %d is %s, oracle has %s", b.Name, i, gotSets[i], wantSets[i])
		}
	}
	for s := query.RelSet(1); s <= b.AllRels(); s++ {
		want := oracleConnectedSet(&closed, s) && oracleNonInnerUnitOK(&closed, s)
		if got := g.ord(s) >= 0; got != want {
			t.Fatalf("%s: ord(%s) plannable = %v, oracle says %v", b.Name, s, got, want)
		}
		if want && g.sets[g.ord(s)] != s {
			t.Fatalf("%s: ord(%s) points at %s", b.Name, s, g.sets[g.ord(s)])
		}
	}
	if len(g.pairs) != len(wantPairs) {
		t.Fatalf("%s: %d pairs, oracle has %d", b.Name, len(g.pairs), len(wantPairs))
	}
	for i := range g.pairs {
		p, w := &g.pairs[i], wantPairs[i]
		got := oraclePair{g.sets[p.set], g.sets[p.outer], g.sets[p.inner], p.joinType, p.mirrored, g.pairConds(p)}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: pair %d is %v, oracle has %v", b.Name, i, got, w)
		}
	}
}

// Property: on random graphs with semi/anti/left units and shared-key
// equivalence classes — and on every fixed shape the other tests plan — the
// index's sets and pair list equal the old clause-scanning walk, in order.
func TestPropertyIndexMatchesOracle(t *testing.T) {
	units := 0
	for seed := uint64(1); seed <= 300; seed++ {
		b := randomUnitGraph(seed)
		for _, c := range b.Clauses {
			if c.Type != query.Inner {
				units++
			}
		}
		checkIndexAgainstOracle(t, b)
	}
	if units < 100 {
		t.Fatalf("only %d non-inner units in 300 random graphs; the generator is not exercising the fences", units)
	}
	for _, c := range goldenCases() {
		checkIndexAgainstOracle(t, c.build(t))
	}
	checkIndexAgainstOracle(t, exampleBlock())
	checkIndexAgainstOracle(t, cliqueGraph(7, 7))
}
