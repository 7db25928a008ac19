package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"bfcbo/internal/datagen"
)

// The sql_streams statement pool: ad-hoc select-project-join statements
// over FK-connected TPC-H subgraphs. A statement is grown from a root table
// by following foreign keys towards the referenced tables only, so every
// join is many-to-one, the result is never larger than the root table, the
// join graph is connected by construction, and no table appears twice.

type sqlTable struct {
	name, alias string
	// parents are the FK edges out of this table: child column, parent
	// table, parent key.
	parents []sqlFK
	// preds are the literal-predicate templates, one per column.
	preds []func(rng *rand.Rand) string
	// rootPred, set on the large tables, is the narrow range a statement
	// rooted there always carries: it keeps the statement short, so that the
	// per-statement fixed costs stay a large share of its wall.
	rootPred func(rng *rand.Rand) string
}

type sqlFK struct{ col, parent, key string }

func pickStr(rng *rand.Rand, vs []string) string { return vs[rng.IntN(len(vs))] }

// pickSome draws n distinct values and renders them as a quoted IN list.
func pickSome(rng *rand.Rand, vs []string, n int) string {
	idx := rng.Perm(len(vs))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = "'" + vs[j] + "'"
	}
	return strings.Join(out, ", ")
}

// dateRange draws a date interval of minDays..maxDays inside the order-date
// domain (shifted by lag days for ship dates).
func dateRange(rng *rand.Rand, lag, minDays, maxDays int) string {
	span := int64(minDays + rng.IntN(maxDays-minDays+1))
	lo := datagen.MinOrderDate + int64(lag) + rng.Int64N(datagen.MaxOrderDate-datagen.MinOrderDate-span)
	day := func(d int64) string { return time.Unix(d*86400, 0).UTC().Format("2006-01-02") }
	return fmt.Sprintf("BETWEEN DATE '%s' AND DATE '%s'", day(lo), day(lo+span))
}

var containers = func() []string {
	var out []string
	for _, a := range datagen.ContainSyl1 {
		for _, b := range datagen.ContainSyl2 {
			out = append(out, a+" "+b)
		}
	}
	return out
}()

var sqlTables = map[string]*sqlTable{
	"region": {name: "region", alias: "r", preds: []func(*rand.Rand) string{
		func(rng *rand.Rand) string { return "r.r_name = '" + pickStr(rng, datagen.Regions) + "'" },
	}},
	"nation": {name: "nation", alias: "n",
		parents: []sqlFK{{"n_regionkey", "region", "r_regionkey"}},
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string {
				return "n.n_name IN (" + pickSome(rng, datagen.Nations, 3+rng.IntN(6)) + ")"
			},
		}},
	"supplier": {name: "supplier", alias: "s",
		parents: []sqlFK{{"s_nationkey", "nation", "n_nationkey"}},
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string { return fmt.Sprintf("s.s_acctbal > %d", -500+rng.IntN(6500)) },
		}},
	"customer": {name: "customer", alias: "c",
		parents: []sqlFK{{"c_nationkey", "nation", "n_nationkey"}},
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string { return "c.c_mktsegment = '" + pickStr(rng, datagen.Segments) + "'" },
			func(rng *rand.Rand) string {
				lo := -900 + rng.IntN(6000)
				return fmt.Sprintf("c.c_acctbal BETWEEN %d AND %d", lo, lo+1000+rng.IntN(4000))
			},
		}},
	"part": {name: "part", alias: "p", preds: []func(*rand.Rand) string{
		func(rng *rand.Rand) string {
			lo := 1 + rng.IntN(30)
			return fmt.Sprintf("p.p_size BETWEEN %d AND %d", lo, lo+5+rng.IntN(15))
		},
		func(rng *rand.Rand) string {
			return fmt.Sprintf("p.p_brand = 'Brand#%d%d'", 1+rng.IntN(5), 1+rng.IntN(5))
		},
		func(rng *rand.Rand) string { return "p.p_type LIKE '%" + pickStr(rng, datagen.TypeSyl3) + "%'" },
		func(rng *rand.Rand) string {
			return "p.p_container IN (" + pickSome(rng, containers, 2+rng.IntN(5)) + ")"
		},
	}},
	"partsupp": {name: "partsupp", alias: "ps",
		parents:  []sqlFK{{"ps_partkey", "part", "p_partkey"}, {"ps_suppkey", "supplier", "s_suppkey"}},
		rootPred: func(rng *rand.Rand) string { return fmt.Sprintf("ps.ps_availqty < %d", 400+rng.IntN(500)) },
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string { return fmt.Sprintf("ps.ps_supplycost < %d", 100+rng.IntN(800)) },
		}},
	"orders": {name: "orders", alias: "o",
		parents:  []sqlFK{{"o_custkey", "customer", "c_custkey"}},
		rootPred: func(rng *rand.Rand) string { return "o.o_orderdate " + dateRange(rng, 0, 30, 45) },
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string {
				return "o.o_orderpriority IN (" + pickSome(rng, datagen.Priorities, 1+rng.IntN(2)) + ")"
			},
			func(rng *rand.Rand) string { return fmt.Sprintf("o.o_totalprice > %d", 50000+rng.IntN(350000)) },
			func(rng *rand.Rand) string {
				return "o.o_orderstatus = '" + pickStr(rng, []string{"F", "O", "P"}) + "'"
			},
		}},
	"lineitem": {name: "lineitem", alias: "l",
		// l_orderkey -> orders is left out on purpose: a lineitem statement
		// that joins unfiltered orders costs five ordinary statements, and
		// how many a seed drew decided the pool's cost. tpch_power has the
		// lineitem-orders joins.
		parents:  []sqlFK{{"l_partkey", "part", "p_partkey"}, {"l_suppkey", "supplier", "s_suppkey"}},
		rootPred: func(rng *rand.Rand) string { return "l.l_shipdate " + dateRange(rng, 60, 10, 20) },
		preds: []func(*rand.Rand) string{
			func(rng *rand.Rand) string {
				return "l.l_shipmode IN (" + pickSome(rng, datagen.ShipModes, 1+rng.IntN(3)) + ")"
			},
			func(rng *rand.Rand) string { return fmt.Sprintf("l.l_quantity < %d", 10+rng.IntN(30)) },
			func(rng *rand.Rand) string {
				lo := rng.IntN(7)
				return fmt.Sprintf("l.l_discount BETWEEN 0.0%d AND 0.%02d", lo, lo+2+rng.IntN(2))
			},
			func(rng *rand.Rand) string { return "l.l_returnflag = '" + pickStr(rng, []string{"R", "A", "N"}) + "'" },
		}},
}

// sqlRoots fixes how many of the pool's statements are rooted at each
// table, so every seed draws the same mix of short and long statements
// (lineitem in 20 %) and only shapes, predicates and literals vary. Ordered
// roughly by cost: the median statement falls among the orders-rooted ones
// and the 95th percentile among the lineitem-rooted ones.
var sqlRoots = []struct {
	table string
	count int
}{
	{"nation", 10}, {"supplier", 15}, {"customer", 25}, {"partsupp", 30}, {"orders", 80}, {"lineitem", 40},
}

// genStatements draws the pool of ad-hoc statements from the workload seed.
func genStatements(seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0x5149))
	var out []string
	for _, r := range sqlRoots {
		for i := 0; i < r.count; i++ {
			out = append(out, genStatement(rng, r.table))
		}
	}
	return out
}

func genStatement(rng *rand.Rand, root string) string {
	tables := []*sqlTable{sqlTables[root]}
	in := map[string]bool{root: true}
	var joins []string
	for want := 2 + rng.IntN(4); len(tables) < want; {
		// The frontier is every FK out of an included table to a table
		// not yet included.
		type edge struct {
			child *sqlTable
			fk    sqlFK
		}
		var frontier []edge
		for _, t := range tables {
			for _, fk := range t.parents {
				if !in[fk.parent] {
					frontier = append(frontier, edge{t, fk})
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[rng.IntN(len(frontier))]
		p := sqlTables[e.fk.parent]
		in[p.name] = true
		tables = append(tables, p)
		joins = append(joins, fmt.Sprintf("%s.%s = %s.%s", e.child.alias, e.fk.col, p.alias, e.fk.key))
	}

	// 1-3 literal predicates on distinct columns. The first goes on the
	// root table, so no statement returns a whole fact table; the others on
	// the joined tables. A region and a nation name are never both
	// constrained, which could contradict.
	type slot struct {
		t *sqlTable
		i int
	}
	var slots []slot
	for _, t := range tables[1:] {
		for i := range t.preds {
			slots = append(slots, slot{t, i})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	rootPred := tables[0].rootPred
	if rootPred == nil {
		rootPred = tables[0].preds[rng.IntN(len(tables[0].preds))]
	}
	preds := []string{rootPred(rng)}
	named := root == "nation"
	want := 1 + rng.IntN(3)
	for _, s := range slots {
		if len(preds) >= want {
			break
		}
		if s.t.name == "region" || s.t.name == "nation" {
			if named {
				continue
			}
			named = true
		}
		preds = append(preds, s.t.preds[s.i](rng))
	}

	from := make([]string, len(tables))
	for i, t := range tables {
		from[i] = t.name + " " + t.alias
	}
	return "SELECT * FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(append(joins, preds...), " AND ")
}
