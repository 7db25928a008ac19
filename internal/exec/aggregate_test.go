package exec

import (
	"fmt"
	"math"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// dictCarryFixture is a scan-only block over one table whose string group
// key sits on the scanned relation itself, so group codes ride the batch
// from the scan's dictionary into the fold.
func dictCarryFixture(t *testing.T) (*storage.Database, *query.Block, *plan.Plan) {
	t.Helper()
	const n = 4000
	g := make([]string, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range g {
		g[i] = fmt.Sprintf("g%d", i%8)
		price[i] = float64(100 + i%50)
		disc[i] = float64(i%4) / 10
	}
	tbl, err := storage.NewTable("dcarry", []storage.Column{
		{Name: "g", Kind: catalog.String, Strings: g},
		{Name: "p", Kind: catalog.Float64, Floats: price},
		{Name: "d", Kind: catalog.Float64, Floats: disc},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	if err := schema.AddTable(storage.Analyze(tbl)); err != nil {
		t.Fatal(err)
	}
	b := &query.Block{
		Name:      "dictcarry",
		Relations: []query.Relation{{Alias: "t", Table: schema.MustTable("dcarry")}},
	}
	return db, b, &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "t", Table: "dcarry"}}
}

// allAggKinds is one spec of each AggKind over a measure relation with
// price/discount columns and a string group key.
func allAggKinds(rel int, price, disc string, keyRel int, key string) []AggSpec {
	return []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggSum, Rel: rel, Col: price},
		{Kind: AggRevenue, Rel: rel, PriceCol: price, DiscCol: disc},
		{Kind: AggGroupCount, KeyRel: keyRel, KeyCol: key},
		{Kind: AggGroupRevenue, KeyRel: keyRel, KeyCol: key, Rel: rel, PriceCol: price, DiscCol: disc},
	}
}

// diffAggregates reports the first difference between two runs' aggregate
// values, floats compared by bit pattern; "" when they are identical.
func diffAggregates(want, got []AggValue) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d values vs %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Count != g.Count {
			return fmt.Sprintf("spec %d: count %d vs %d", i, w.Count, g.Count)
		}
		if math.Float64bits(w.Sum) != math.Float64bits(g.Sum) {
			return fmt.Sprintf("spec %d: sum %v vs %v", i, w.Sum, g.Sum)
		}
		if len(w.Groups) != len(g.Groups) || len(w.GroupSums) != len(g.GroupSums) {
			return fmt.Sprintf("spec %d: %d/%d groups vs %d/%d", i,
				len(w.Groups), len(w.GroupSums), len(g.Groups), len(g.GroupSums))
		}
		for k, v := range w.Groups {
			if g.Groups[k] != v {
				return fmt.Sprintf("spec %d: group %q: %d vs %d", i, k, v, g.Groups[k])
			}
		}
		for k, v := range w.GroupSums {
			gv, ok := g.GroupSums[k]
			if !ok || math.Float64bits(gv) != math.Float64bits(v) {
				return fmt.Sprintf("spec %d: group sum %q: %v vs %v", i, k, v, gv)
			}
		}
	}
	return ""
}

// TestAggregatesIndependentOfSchedule: an aggregate is a function of the
// rows folded, nothing else. Morsels reach workers through a shared
// cursor, so two DOP-4 runs of one configuration fold different rows on
// different workers; every such run — at three morsel sizes, and with
// every join spilled — must reproduce the DOP-1 result and the legacy
// interpreter's bit for bit, for all five aggregate kinds.
func TestAggregatesIndependentOfSchedule(t *testing.T) {
	type fixture struct {
		name  string
		db    *storage.Database
		b     *query.Block
		p     *plan.Plan
		specs []AggSpec
		joins bool
	}
	var cases []fixture
	db, b, p := aggBlockFixture(t)
	cases = append(cases, fixture{"aggBlock", db, b, p, allAggKinds(0, "price", "disc", 1, "name"), true})
	db, b, p = dictCarryFixture(t)
	cases = append(cases, fixture{"dictCarry", db, b, p, allAggKinds(0, "p", "d", 0, "g"), false})
	ds := equivalenceDataset(t)
	for _, q := range []struct {
		num    int
		keyRel int
		key    string
	}{{3, 1, "o_orderpriority"}, {5, 4, "n_name"}, {10, 3, "n_name"}} {
		tq, _ := tpch.Get(q.num)
		block := tq.Build(ds.Schema)
		opts := optimizer.DefaultOptions(0.01)
		opts.Mode = optimizer.BFCBO
		res, err := optimizer.Optimize(block, opts)
		if err != nil {
			t.Fatalf("Q%d: optimize: %v", q.num, err)
		}
		// Relation 2 is lineitem in all three blocks.
		cases = append(cases, fixture{fmt.Sprintf("Q%d", q.num), ds.DB, block, res.Plan,
			allAggKinds(2, "l_extendedprice", "l_discount", q.keyRel, q.key), true})
	}
	const runs = 50
	for _, c := range cases {
		ref, err := Run(c.db, c.b, c.p, Options{DOP: 1, Aggregates: c.specs})
		if err != nil {
			t.Fatalf("%s: dop 1: %v", c.name, err)
		}
		if ref.Rows == 0 || len(ref.Aggregates[4].GroupSums) == 0 {
			t.Fatalf("%s: empty reference result: %+v", c.name, ref.Aggregates)
		}
		legacy, err := Run(c.db, c.b, c.p, Options{DOP: 1, Legacy: true, Aggregates: c.specs})
		if err != nil {
			t.Fatalf("%s: legacy: %v", c.name, err)
		}
		if d := diffAggregates(ref.Aggregates, legacy.Aggregates); d != "" {
			t.Fatalf("%s: dop 1 vs legacy: %s", c.name, d)
		}
		for _, morsel := range []int{16, 256, 0} {
			for i := 0; i < runs; i++ {
				r, err := Run(c.db, c.b, c.p, Options{DOP: 4, morselSize: morsel, Aggregates: c.specs})
				if err != nil {
					t.Fatalf("%s morsel %d: %v", c.name, morsel, err)
				}
				if d := diffAggregates(ref.Aggregates, r.Aggregates); d != "" {
					t.Fatalf("%s morsel %d run %d: dop 1 vs dop 4: %s", c.name, morsel, i, d)
				}
			}
		}
		if !c.joins {
			continue
		}
		r, err := Run(c.db, c.b, c.p, Options{DOP: 4, Aggregates: c.specs,
			Broker: mem.NewBroker(tinyBudget), SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s spilled: %v", c.name, err)
		}
		if !r.TotalSpill().Spilled() {
			t.Fatalf("%s: tiny budget did not spill", c.name)
		}
		if d := diffAggregates(ref.Aggregates, r.Aggregates); d != "" {
			t.Fatalf("%s: dop 1 vs spilled dop 4: %s", c.name, d)
		}
	}
}

// A group column whose literal value is "<null>" must merge with the
// null-extended rows' group: the interning dictionary maps the literal
// string to the null code, so both report under the one "<null>" key —
// in the streaming sink and in the legacy interpreter alike.
func TestFlatKernelsLiteralNullGroup(t *testing.T) {
	db := storage.NewDatabase()
	fact, err := storage.NewTable("nfact", []storage.Column{
		{Name: "fk", Kind: catalog.Int64, Ints: []int64{0, 0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := storage.NewTable("ndim", []storage.Column{
		{Name: "pk", Kind: catalog.Int64, Ints: []int64{0, 1}},
		{Name: "tag", Kind: catalog.String, Strings: []string{"<null>", "DE"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema()
	for _, tb := range []*storage.Table{fact, dim} {
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(storage.Analyze(tb)); err != nil {
			t.Fatal(err)
		}
	}
	b := &query.Block{
		Name: "nullgroup",
		Relations: []query.Relation{
			{Alias: "f", Table: schema.MustTable("nfact")},
			{Alias: "d", Table: schema.MustTable("ndim")},
		},
		Clauses: []query.JoinClause{
			// Left join: fk=2 has no dim match and null-extends.
			{Type: query.Left, LeftRel: 0, LeftCol: "fk", RightRel: 1, RightCol: "pk"},
		},
	}
	p := &plan.Plan{Root: &plan.Join{
		Method: plan.HashJoin, JoinType: query.Left,
		Outer: &plan.Scan{Rel: 0, Alias: "f", Table: "nfact"},
		Inner: &plan.Scan{Rel: 1, Alias: "d", Table: "ndim"},
		Conds: []plan.Cond{{OuterRel: 0, OuterCol: "fk", InnerRel: 1, InnerCol: "pk"}},
	}}
	specs := []AggSpec{{Kind: AggGroupCount, KeyRel: 1, KeyCol: "tag"}}
	for _, legacy := range []bool{false, true} {
		r, err := Run(db, b, p, Options{DOP: 2, Aggregates: specs, Legacy: legacy})
		if err != nil {
			t.Fatal(err)
		}
		got := r.Aggregates[0].Groups
		// Two rows hit tag "<null>", one hits "DE", one null-extends.
		if got["<null>"] != 3 || got["DE"] != 1 || len(got) != 2 {
			t.Fatalf("legacy=%v: groups = %v, want map[<null>:3 DE:1]", legacy, got)
		}
	}
}
