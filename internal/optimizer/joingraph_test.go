package optimizer

import (
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

func mustJoinGraph(t *testing.T, b *query.Block) *joinGraph {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return newJoinGraph(b)
}

// A chain's plannable sets are its intervals.
func TestJoinGraphChainSets(t *testing.T) {
	g := mustJoinGraph(t, chainGraph(4, 4)) // 0-1-2-3, a column pair per edge
	for _, c := range []struct {
		s    query.RelSet
		want bool
	}{
		{query.NewRelSet(0, 1, 2), true},
		{query.NewRelSet(0, 2), false}, // not connected
		{query.NewRelSet(3), true},     // a singleton always is
		{query.RelSet(0), false},       // the empty set never
	} {
		if got := g.ord(c.s) >= 0; got != c.want {
			t.Errorf("ord(%s) plannable = %v, want %v", c.s, got, c.want)
		}
	}
	if len(g.sets) != 4+3+2+1 {
		t.Errorf("a 4-chain has 10 intervals, the index lists %d sets", len(g.sets))
	}
	// 3 two-relation sets with one split, 2 three-relation sets with two,
	// the whole chain with three; every split in both orientations.
	if len(g.pairs) != 2*(3+2*2+3) {
		t.Errorf("want 20 ordered pairs, got %d", len(g.pairs))
	}
}

// Result reports the size of the index: every mode walks the same pair list,
// BF-CBO twice.
func TestResultReportsIndexSize(t *testing.T) {
	for _, mode := range []Mode{NoBF, BFCBO} {
		opts := DefaultOptions(100)
		opts.Mode = mode
		res, err := Optimize(chainGraph(4, 4), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConnectedSets != 10 || res.JoinPairs != 20 {
			t.Errorf("%s: ConnectedSets = %d, JoinPairs = %d, want 10 and 20", mode, res.ConnectedSets, res.JoinPairs)
		}
		if want := map[Mode]int{NoBF: 0, BFCBO: 20}[mode]; res.Phase1Pairs != want {
			t.Errorf("%s: Phase1Pairs = %d, want %d", mode, res.Phase1Pairs, want)
		}
	}
}

// The conditions of a pair are the spanning clauses seen from its outer side.
func TestJoinGraphPairConds(t *testing.T) {
	g := mustJoinGraph(t, chainGraph(3, 3)) // clauses 0.fk1=1.pk, 1.fk2=2.pk
	found := 0
	for i := range g.pairs {
		p := &g.pairs[i]
		outer, inner := g.sets[p.outer], g.sets[p.inner]
		var want plan.Cond
		switch {
		case outer == query.NewRelSet(0, 1) && inner == query.NewRelSet(2):
			want = plan.Cond{OuterRel: 1, OuterCol: "fk2", InnerRel: 2, InnerCol: "pk"}
		case outer == query.NewRelSet(2) && inner == query.NewRelSet(0, 1):
			want = plan.Cond{OuterRel: 2, OuterCol: "pk", InnerRel: 1, InnerCol: "fk2"}
		default:
			continue
		}
		found++
		if conds := g.pairConds(p); len(conds) != 1 || conds[0] != want {
			t.Errorf("(%s, %s): conds = %+v, want [%+v]", outer, inner, conds, want)
		}
		if p.joinType != query.Inner {
			t.Errorf("(%s, %s): join type %s", outer, inner, p.joinType)
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the 2 orientations of ({0,1}, {2})", found)
	}
}

// A semi/anti/left unit is planned whole: sets that split it get no plan
// list, and every split the clause spans yields exactly two pairs — the unit
// as the inner of its preserve side, then the same two sides mirrored.
func TestJoinGraphNonInnerUnit(t *testing.T) {
	// 0 inner-joins 1; 0 semi-joins {2,3} (a two-table subquery side).
	mk := func(name string) *catalog.Table {
		return catalog.NewTable(name, 10, []catalog.Column{{Name: "k", Type: catalog.Int64}, {Name: "j", Type: catalog.Int64}})
	}
	b := &query.Block{
		Name: "semi",
		Relations: []query.Relation{
			{Alias: "t0", Table: mk("t0")}, {Alias: "t1", Table: mk("t1")},
			{Alias: "t2", Table: mk("t2")}, {Alias: "t3", Table: mk("t3")},
		},
		Clauses: []query.JoinClause{
			{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: 1, RightCol: "k"},
			{Type: query.Semi, LeftRel: 0, LeftCol: "j", RightRel: 2, RightCol: "j", SubRels: query.NewRelSet(2, 3)},
			{Type: query.Inner, LeftRel: 2, LeftCol: "k", RightRel: 3, RightCol: "k"},
		},
	}
	g := mustJoinGraph(t, b)
	for _, c := range []struct {
		s    query.RelSet
		want bool
	}{
		{query.NewRelSet(0, 1), true},       // no subquery rels
		{query.NewRelSet(2, 3), true},       // exactly the unit
		{query.NewRelSet(2), true},          // inside the unit
		{query.NewRelSet(0, 2), false},      // splits the unit
		{query.NewRelSet(0, 1, 2, 3), true}, // contains the whole unit
		{query.NewRelSet(0, 2, 3), true},
		{query.NewRelSet(1, 3), false}, // splits the unit (and is disconnected)
	} {
		if got := g.ord(c.s) >= 0; got != c.want {
			t.Errorf("ord(%s) plannable = %v, want %v", c.s, got, c.want)
		}
	}
	unit := query.NewRelSet(2, 3)
	crossing := 0
	for i := 0; i < len(g.pairs); i++ {
		p := &g.pairs[i]
		outer, inner := g.sets[p.outer], g.sets[p.inner]
		// The semi clause spans the split when t0 and the unit part ways.
		if !(outer.Has(0) && inner.Overlaps(unit)) && !(inner.Has(0) && outer.Overlaps(unit)) {
			if p.mirrored || p.joinType != query.Inner {
				t.Errorf("pair (%s, %s) is %s, mirrored=%v, without spanning the semi clause", outer, inner, p.joinType, p.mirrored)
			}
			continue
		}
		crossing++
		if inner != unit || !outer.Has(0) || p.joinType != query.Semi || p.mirrored {
			t.Fatalf("pair (%s, %s) type %s mirrored=%v: want the unit as the inner of its preserve side first", outer, inner, p.joinType, p.mirrored)
		}
		// Its twin follows at once: same set, sides and conditions swapped.
		i++
		if i == len(g.pairs) {
			t.Fatalf("pair (%s, %s) has no mirrored twin", outer, inner)
		}
		m := &g.pairs[i]
		if m.set != p.set || m.outer != p.inner || m.inner != p.outer || m.joinType != query.Semi || !m.mirrored {
			t.Fatalf("after (%s, %s): pair (%s, %s) type %s mirrored=%v, want its mirrored twin",
				outer, inner, g.sets[m.outer], g.sets[m.inner], m.joinType, m.mirrored)
		}
		pc, mc := g.pairConds(p), g.pairConds(m)
		if len(pc) != len(mc) {
			t.Fatalf("(%s, %s): %d conditions, its twin has %d", outer, inner, len(pc), len(mc))
		}
		for k := range pc {
			if mc[k] != flipCond(pc[k]) {
				t.Errorf("(%s, %s): twin condition %d is %+v, want %+v flipped", outer, inner, k, mc[k], pc[k])
			}
		}
	}
	// {0} and {0,1} each meet the unit once.
	if crossing != 2 {
		t.Errorf("%d splits span the semi clause, want 2", crossing)
	}
}

// Blocks too wide for the index's dense subset table are refused, not
// allowed to exhaust memory.
func TestTooManyRelationsRejected(t *testing.T) {
	b := chainedBlock(maxRelations+1, false)
	if _, err := Optimize(b, chainOptions(NoBF)); err == nil {
		t.Fatal("want an error for a block wider than maxRelations")
	}
}
