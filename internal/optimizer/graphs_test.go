package optimizer

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/datagen"
	"bfcbo/internal/query"
	"bfcbo/internal/tpch"
)

// Catalog-only join graphs shared by the golden plan-identity test, the
// determinism tests, the pair-list property test and BenchmarkOptimize.
// Every graph is a pure function of (shape, n, seed): tables exist only as
// statistics, so planning them exercises the enumerator and nothing else.

// testGraph accumulates one graph's relations and clauses.
type testGraph struct {
	name    string
	rng     *propRNG
	rows    []float64
	cols    [][]catalog.Column
	fks     [][]catalog.ForeignKey
	preds   []query.Predicate
	clauses []query.JoinClause
}

func newTestGraph(name string, seed uint64) *testGraph {
	return &testGraph{name: name, rng: &propRNG{s: seed}}
}

func (g *testGraph) float() float64 { return float64(g.rng.next()>>11) / (1 << 53) }

// logUniform draws a whole row count from [lo, hi], uniform in log space.
func (g *testGraph) logUniform(lo, hi float64) float64 {
	return math.Round(math.Exp(math.Log(lo) + g.float()*(math.Log(hi)-math.Log(lo))))
}

// rel adds a relation with primary key pk and a filter column v over
// [0,1000). Three relations in four carry the local predicate v < sel*1000
// with sel drawn from [0.02, 0.2], comfortably under Heuristic 6's limit.
func (g *testGraph) rel(rows float64, filtered bool) int {
	i := len(g.rows)
	g.rows = append(g.rows, rows)
	g.cols = append(g.cols, []catalog.Column{
		{Name: "pk", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows, Min: 1, Max: rows}},
		{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 999}},
	})
	g.fks = append(g.fks, nil)
	var p query.Predicate
	sel := math.Exp(math.Log(0.02) + g.float()*(math.Log(0.2)-math.Log(0.02)))
	if filtered && i%4 != 0 {
		p = query.CmpInt{Col: "v", Op: query.LT, Val: int64(math.Max(1, math.Round(sel*1000)))}
	}
	g.preds = append(g.preds, p)
	return i
}

// fk adds child.fk<parent> referencing parent.pk and the clause joining them
// with the given type (sub is the clause's SubRels, zero for Inner).
func (g *testGraph) fk(child, parent int, jt query.JoinType, sub query.RelSet) {
	col := fmt.Sprintf("fk%d", parent)
	ndv := math.Min(g.rows[child], g.rows[parent])
	g.cols[child] = append(g.cols[child], catalog.Column{
		Name: col, Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 1, Max: g.rows[parent]},
	})
	g.fks[child] = append(g.fks[child], catalog.ForeignKey{Col: col, RefTable: fmt.Sprintf("t%d", parent), RefCol: "pk"})
	g.clauses = append(g.clauses, query.JoinClause{
		Type: jt, LeftRel: child, LeftCol: col, RightRel: parent, RightCol: "pk", SubRels: sub})
}

// col adds a non-key join column to a relation.
func (g *testGraph) col(rel int, name string, ndv float64) {
	ndv = math.Min(ndv, g.rows[rel])
	g.cols[rel] = append(g.cols[rel], catalog.Column{
		Name: name, Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 1, Max: ndv},
	})
}

// shared adds the column k (the cliques' common join key).
func (g *testGraph) shared(rel int, ndv float64) { g.col(rel, "k", ndv) }

func (g *testGraph) block() *query.Block {
	b := &query.Block{Name: g.name, Clauses: append([]query.JoinClause(nil), g.clauses...)}
	for i, cols := range g.cols {
		t := catalog.NewTable(fmt.Sprintf("t%d", i), g.rows[i], cols)
		t.PrimaryKey = "pk"
		t.ForeignKeys = g.fks[i]
		b.Relations = append(b.Relations, query.Relation{Alias: t.Name, Table: t, Pred: g.preds[i]})
	}
	return b
}

// chainGraph is t0 -> t1 -> ... with row counts falling along the chain.
func chainGraph(n int, seed uint64) *query.Block {
	g := newTestGraph(fmt.Sprintf("chain%d", n), seed)
	rows := g.logUniform(3e8, 6e8)
	for i := 0; i < n; i++ {
		g.rel(rows, true)
		rows = math.Max(100, math.Round(rows/(2.5+g.float())))
	}
	for i := 0; i+1 < n; i++ {
		g.fk(i, i+1, query.Inner, 0)
	}
	return g.block()
}

// starGraph is a fact table with n-1-sub dimensions; sub second-level
// dimensions hang off the first ones (a two-level snowflake when sub > 0).
func starGraph(name string, n, sub int, seed uint64) *query.Block {
	g := newTestGraph(fmt.Sprintf("%s%d", name, n), seed)
	fact := g.rel(g.logUniform(3e8, 6e8), false)
	dims := n - 1 - sub
	for d := 0; d < dims; d++ {
		g.fk(fact, g.rel(g.logUniform(1e5, 1e6), true), query.Inner, 0)
	}
	for s := 0; s < sub; s++ {
		g.fk(1+s%dims, g.rel(g.logUniform(1e3, 1e4), true), query.Inner, 0)
	}
	return g.block()
}

func snowflakeGraph(n int, seed uint64) *query.Block {
	return starGraph("snowflake", n, (n-1)/3, seed)
}

// cliqueGraph joins n relations on one shared key: the transitive closure
// of the n-1 written clauses is the complete graph.
func cliqueGraph(n int, seed uint64) *query.Block {
	g := newTestGraph(fmt.Sprintf("clique%d", n), seed)
	ndv := g.logUniform(1e6, 2e6)
	for i := 0; i < n; i++ {
		r := g.rel(g.logUniform(2e6, 8e6), true)
		g.shared(r, ndv)
		if i > 0 {
			g.clauses = append(g.clauses, query.JoinClause{
				Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: r, RightCol: "k"})
		}
	}
	return g.block()
}

// randomUnitGraph draws a random connected graph of 3-9 relations: a tree
// of top-level relations joined by inner clauses, plus semi/anti/left units
// (small inner-joined trees) each fenced off behind one non-inner clause.
// One edge in three joins on the shared column k instead of a foreign key,
// so equivalence classes of three or more endpoints occur and the
// transitive closure has something to derive.
func randomUnitGraph(seed uint64) *query.Block {
	g := newTestGraph(fmt.Sprintf("unit-%d", seed), seed)
	n := 3 + g.rng.intn(7)
	top := 2 + g.rng.intn(n-1)
	for i := 0; i < n; i++ {
		g.shared(g.rel(g.logUniform(1e3, 1e7), true), 500)
	}
	edge := func(p, i int) {
		if g.rng.intn(3) == 0 {
			g.clauses = append(g.clauses, query.JoinClause{
				Type: query.Inner, LeftRel: p, LeftCol: "k", RightRel: i, RightCol: "k"})
			return
		}
		g.fk(i, p, query.Inner, 0)
	}
	for i := 1; i < top; i++ {
		edge(g.rng.intn(i), i)
	}
	for root := top; root < n; {
		size := 1 + g.rng.intn(min(3, n-root))
		unit := query.NewRelSet(root)
		for j := root + 1; j < root+size; j++ {
			unit = unit.Add(j)
			edge(root+g.rng.intn(j-root), j)
		}
		jt := []query.JoinType{query.Semi, query.Anti, query.Left}[g.rng.intn(3)]
		g.fk(g.rng.intn(top), root, jt, unit)
		root += size
	}
	return g.block()
}

var (
	tpchOnce   sync.Once
	tpchSchema *catalog.Schema
	tpchErr    error
)

// tpchBlock builds a fresh block of TPC-H query num over statistics
// analyzed from a small generated dataset (built once per test binary).
func tpchBlock(tb testing.TB, num int) *query.Block {
	tb.Helper()
	tpchOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
		if err != nil {
			tpchErr = err
			return
		}
		tpchSchema = ds.Schema
	})
	if tpchErr != nil {
		tb.Fatal(tpchErr)
	}
	q, ok := tpch.Get(num)
	if !ok {
		tb.Fatalf("no TPC-H query %d", num)
	}
	return q.Build(tpchSchema)
}

// tpchSF is the scale factor tpchBlock's statistics come from.
const tpchSF = 0.01
