package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"bfcbo/internal/catalog"
	"bfcbo/internal/query"
)

// graph is one catalog-only join graph of the plan_heavy workload: tables
// that exist only as statistics, local filters, and equi-join clauses. The
// optimizer mutates the block it plans (transitive closure), so every
// operation gets a fresh block from block().
type graph struct {
	name    string
	tables  []*catalog.Table
	preds   []query.Predicate
	clauses []query.JoinClause
}

func (g *graph) block() *query.Block {
	b := &query.Block{Name: g.name, Clauses: append([]query.JoinClause(nil), g.clauses...)}
	for i, t := range g.tables {
		b.Relations = append(b.Relations, query.Relation{Alias: t.Name, Table: t, Pred: g.preds[i]})
	}
	return b
}

// describe is the canonical text the workload digest hashes.
func (g *graph) describe() string {
	var sb strings.Builder
	sb.WriteString(g.block().String())
	for _, t := range g.tables {
		fmt.Fprintf(&sb, "%s rows=%g", t.Name, t.RowCount)
		for _, c := range t.Columns {
			fmt.Fprintf(&sb, " %s:%g", c.Name, c.Stats.NDV)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// graphShapes fixes the topology multiset of one plan_heavy pass: the seed
// draws statistics, filters and order, never the shapes, so two seeds plan
// search spaces of the same size and their timings are comparable.
var graphShapes = []struct {
	kind string
	n    int
}{
	{"chain", 10}, {"chain", 11}, {"chain", 12}, {"chain", 12}, {"chain", 13}, {"chain", 13}, {"chain", 14}, {"chain", 14},
	{"star", 9}, {"star", 10}, {"star", 10}, {"star", 11},
	{"snowflake", 9}, {"snowflake", 10}, {"snowflake", 11}, {"snowflake", 12},
	{"clique", 5}, {"clique", 5}, {"clique", 5}, {"clique", 5}, {"clique", 6}, {"clique", 6}, {"clique", 6}, {"clique", 6},
}

// genGraphs draws the pass's 24 graphs from the workload seed.
func genGraphs(seed uint64) []*graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	out := make([]*graph, len(graphShapes))
	for i, sh := range graphShapes {
		name := fmt.Sprintf("%s%d-%d", sh.kind, sh.n, i)
		switch sh.kind {
		case "chain":
			out[i] = genChain(rng, name, sh.n)
		case "star":
			out[i] = genStar(rng, name, sh.n, 0)
		case "snowflake":
			out[i] = genStar(rng, name, sh.n, (sh.n-1)/3)
		default:
			out[i] = genClique(rng, name, sh.n)
		}
	}
	return out
}

// logUniform draws from [lo, hi] uniformly in log space, rounded to a whole
// row count.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
}

// builder accumulates one graph's relations and clauses.
type builder struct {
	g    *graph
	cols [][]catalog.Column
	rows []float64
	fks  [][]catalog.ForeignKey
}

func newBuilder(name string) *builder { return &builder{g: &graph{name: name}} }

// rel adds a relation with a primary key and a filter column v over
// [0,1000); sel > 0 puts the local predicate v < sel*1000 on it.
func (b *builder) rel(rows, sel float64) int {
	i := len(b.rows)
	b.rows = append(b.rows, rows)
	b.cols = append(b.cols, []catalog.Column{
		{Name: "pk", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: rows, Min: 1, Max: rows}},
		{Name: "v", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: 1000, Min: 0, Max: 999}},
	})
	b.fks = append(b.fks, nil)
	var p query.Predicate
	if sel > 0 {
		p = query.CmpInt{Col: "v", Op: query.LT, Val: int64(math.Max(1, math.Round(sel*1000)))}
	}
	b.g.preds = append(b.g.preds, p)
	return i
}

// fk adds a foreign-key column on child referencing parent's primary key
// and the join clause child.fk = parent.pk. Each edge has its own column,
// so no two edges fall into one equivalence class.
func (b *builder) fk(child, parent int) {
	col := fmt.Sprintf("fk%d", parent)
	ndv := math.Min(b.rows[child], b.rows[parent])
	b.cols[child] = append(b.cols[child], catalog.Column{
		Name: col, Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 1, Max: b.rows[parent]},
	})
	b.fks[child] = append(b.fks[child], catalog.ForeignKey{Col: col, RefTable: fmt.Sprintf("t%d", parent), RefCol: "pk"})
	b.g.clauses = append(b.g.clauses, query.JoinClause{
		Type: query.Inner, LeftRel: child, LeftCol: col, RightRel: parent, RightCol: "pk"})
}

// shared adds a non-key column k with the given NDV to a relation (the
// cliques' common join key).
func (b *builder) shared(rel int, ndv float64) {
	ndv = math.Min(ndv, b.rows[rel])
	b.cols[rel] = append(b.cols[rel], catalog.Column{
		Name: "k", Type: catalog.Int64, Stats: catalog.ColumnStats{NDV: ndv, Min: 1, Max: ndv},
	})
}

func (b *builder) done() *graph {
	for i, cols := range b.cols {
		t := catalog.NewTable(fmt.Sprintf("t%d", i), b.rows[i], cols)
		t.PrimaryKey = "pk"
		t.ForeignKeys = b.fks[i]
		b.g.tables = append(b.g.tables, t)
	}
	return b.g
}

// dimSel draws the local selectivity of the i-th dimension-like relation
// of a graph. Which relations are filtered is fixed by position (three in
// four), and the drawn selectivity stays well under Heuristic 6's 2/3 keep
// limit, so a seed changes estimates and costs but not which Bloom filter
// candidates exist: search spaces stay comparable across seeds.
func dimSel(rng *rand.Rand, i int) float64 {
	sel := math.Exp(math.Log(0.02) + rng.Float64()*(math.Log(0.2)-math.Log(0.02)))
	if i%4 == 3 {
		return 0
	}
	return sel
}

// genChain builds a true chain t0 -> t1 -> ... of n relations: row counts
// fall along the chain like a fact-to-dimension path.
func genChain(rng *rand.Rand, name string, n int) *graph {
	b := newBuilder(name)
	rows := logUniform(rng, 3e8, 6e8)
	for i := 0; i < n; i++ {
		sel := 0.0
		if i > 0 {
			sel = dimSel(rng, i)
		}
		b.rel(rows, sel)
		rows = math.Max(100, math.Round(rows/(2.5+rng.Float64())))
	}
	for i := 0; i+1 < n; i++ {
		b.fk(i, i+1)
	}
	return b.done()
}

// genStar builds a fact table with n-1-sub dimensions; sub > 0 hangs that
// many second-level dimensions off the first ones (a two-level snowflake).
func genStar(rng *rand.Rand, name string, n, sub int) *graph {
	b := newBuilder(name)
	fact := b.rel(logUniform(rng, 3e8, 6e8), 0)
	dims := n - 1 - sub
	for d := 0; d < dims; d++ {
		b.fk(fact, b.rel(logUniform(rng, 1e5, 1e6), dimSel(rng, d)))
	}
	for s := 0; s < sub; s++ {
		parent := 1 + s%dims
		b.fk(parent, b.rel(logUniform(rng, 1e3, 1e4), dimSel(rng, s)))
	}
	return b.done()
}

// genClique joins n relations on one shared key, so the transitive closure
// of the n-1 written clauses is the complete graph.
func genClique(rng *rand.Rand, name string, n int) *graph {
	b := newBuilder(name)
	ndv := logUniform(rng, 1e6, 2e6)
	for i := 0; i < n; i++ {
		r := b.rel(logUniform(rng, 2e6, 8e6), dimSel(rng, i))
		b.shared(r, ndv)
		if i > 0 {
			b.g.clauses = append(b.g.clauses, query.JoinClause{
				Type: query.Inner, LeftRel: 0, LeftCol: "k", RightRel: r, RightCol: "k"})
		}
	}
	return b.done()
}
