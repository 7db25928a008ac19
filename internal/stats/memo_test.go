package stats

import (
	"fmt"
	"math"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/datagen"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// TestEstimatorMemoIsExact: the memoized kept fraction of every connected
// (relation, δ), and every candidate-shaped SemiJoinFraction, equal the
// unmemoized recursion bit for bit, whether a question is asked first or
// again and whichever of the two asks it first. The blocks are the 22
// TPC-H blocks and a star, a snowflake and a clique, each with its clause
// list closed as the optimizer closes it.
func TestEstimatorMemoIsExact(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*query.Block
	for _, q := range tpch.All() {
		blocks = append(blocks, q.Build(ds.Schema))
	}
	blocks = append(blocks, memoGraph("star", 11), memoGraph("snowflake", 12), memoGraph("clique", 6))
	for _, b := range blocks {
		closed := *b
		closed.AddTransitiveClauses()
		if err := closed.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		deltas := connectedSets(&closed)
		ref := NewEstimator(&closed) // its memo is never asked
		for _, semiFirst := range []bool{false, true} {
			e := NewEstimator(&closed)
			check := func(what string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (semi first %v): %s = %v from the memo, %v from the recursion", b.Name, semiFirst, what, got, want)
				}
			}
			askKept := func() {
				for _, d := range deltas {
					for rel := range closed.Relations {
						check(fmt.Sprintf("relKept(%d, %v)", rel, d), e.relKept(rel, d), ref.relKeptFraction(rel, d, 0))
					}
				}
			}
			askSemi := func() {
				for _, c := range closed.Clauses {
					l, r := query.Endpoint{Rel: c.LeftRel, Col: c.LeftCol}, query.Endpoint{Rel: c.RightRel, Col: c.RightCol}
					for _, ab := range [][2]query.Endpoint{{l, r}, {r, l}} {
						apply, build := ab[0], ab[1]
						for _, d := range deltas {
							if !d.Has(build.Rel) {
								continue
							}
							want := ref.semiFracOneHop(apply.Rel, apply.Col, build.Rel, build.Col, ref.relKeptFraction(build.Rel, d, query.NewRelSet(apply.Rel)))
							check(fmt.Sprintf("SemiJoinFraction(%v, %v, %v)", apply, build, d),
								e.SemiJoinFraction(apply.Rel, apply.Col, build.Rel, build.Col, d), want)
						}
					}
				}
			}
			if semiFirst {
				askSemi()
				askKept()
				askSemi()
			} else {
				askKept()
				askKept()
				askSemi()
			}
		}
	}
}

// connectedSets returns every relation set the block's clauses connect.
func connectedSets(b *query.Block) []query.RelSet {
	adj := make([]query.RelSet, len(b.Relations))
	for _, c := range b.Clauses {
		adj[c.LeftRel] = adj[c.LeftRel].Add(c.RightRel)
		adj[c.RightRel] = adj[c.RightRel].Add(c.LeftRel)
	}
	var sets []query.RelSet
	for s := query.RelSet(1); s <= b.AllRels(); s++ {
		reached := query.NewRelSet(s.Members()[0])
		for grown := true; grown; {
			grown = false
			for _, r := range reached.Members() {
				if next := reached.Union(adj[r] & s); next != reached {
					reached, grown = next, true
				}
			}
		}
		if reached == s {
			sets = append(sets, s)
		}
	}
	return sets
}

// memoGraph builds a catalog-only join graph of n relations: a star (t0
// references every other relation), a snowflake (the last third of the
// relations hang off the first dimensions instead), or a clique (every
// relation joins t0 on the shared column k, which closes to the complete
// graph). Two relations in three carry a local predicate.
func memoGraph(shape string, n int) *query.Block {
	b := &query.Block{Name: fmt.Sprintf("%s%d", shape, n)}
	rows := make([]float64, n)
	cols := make([][]catalog.Column, n)
	fks := make([][]catalog.ForeignKey, n)
	for i := range rows {
		switch {
		case shape == "clique":
			rows[i] = 2e6 * float64(1+i%4)
		case i == 0:
			rows[i] = 3e8
		default:
			rows[i] = 1e5 * float64(1+(7*i)%10)
		}
		cols[i] = []catalog.Column{
			{Name: "pk", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows[i], Min: 1, Max: rows[i]}},
			{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 999}},
			{Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1.5e6, Min: 1, Max: 1.5e6}},
		}
	}
	for i := 1; i < n; i++ {
		if shape == "clique" {
			b.Clauses = append(b.Clauses, query.JoinClause{Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: i, RightCol: "k"})
			continue
		}
		parent := 0
		if shape == "snowflake" && i > 2*n/3 {
			parent = 1 + i%(2*n/3)
		}
		col := fmt.Sprintf("fk%d", i)
		cols[parent] = append(cols[parent], catalog.Column{Name: col, Type: catalog.Int64,
			Stats: catalog.ColumnStats{NDV: math.Min(rows[parent], rows[i]), Min: 1, Max: rows[i]}})
		fks[parent] = append(fks[parent], catalog.ForeignKey{Col: col, RefTable: fmt.Sprintf("t%d", i), RefCol: "pk"})
		b.Clauses = append(b.Clauses, query.JoinClause{Type: query.Inner, LeftRel: parent, LeftCol: col, RightRel: i, RightCol: "pk"})
	}
	for i := range rows {
		tab := catalog.NewTable(fmt.Sprintf("t%d", i), rows[i], cols[i])
		tab.PrimaryKey = "pk"
		tab.ForeignKeys = fks[i]
		var pred query.Predicate
		if i%3 != 0 {
			pred = query.CmpInt{Col: "v", Op: query.LT, Val: int64(20 + 37*i)}
		}
		b.Relations = append(b.Relations, query.Relation{Alias: tab.Name, Table: tab, Pred: pred})
	}
	return b
}
