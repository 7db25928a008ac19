package exec

import (
	"fmt"
	"slices"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/mem"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
	"bfcbo/internal/tpch"
)

// flipOrientation returns a copy of p with every semi, anti and left hash
// join turned the other way round: build and probe side swapped, the
// conditions with them. The Bloom filters such a join built went from its
// old build side to its old probe side and have no place in the flipped
// join, so they are dropped; every other filter keeps its build site.
func flipOrientation(p *plan.Plan) *plan.Plan {
	dropped := map[int]bool{}
	var flip func(n plan.Node) plan.Node
	flip = func(n plan.Node) plan.Node {
		switch t := n.(type) {
		case *plan.Scan:
			c := *t
			return &c
		case *plan.Join:
			c := *t
			c.Outer, c.Inner = flip(t.Outer), flip(t.Inner)
			if c.JoinType != query.Inner {
				c.BuildPreserved = !c.BuildPreserved
				c.Outer, c.Inner = c.Inner, c.Outer
				c.Conds = make([]plan.Cond, len(t.Conds))
				for i, cd := range t.Conds {
					c.Conds[i] = plan.Cond{OuterRel: cd.InnerRel, OuterCol: cd.InnerCol, InnerRel: cd.OuterRel, InnerCol: cd.OuterCol}
				}
				for _, id := range c.BuildBlooms {
					dropped[id] = true
				}
				c.BuildBlooms = nil
			}
			return &c
		}
		return n
	}
	out := *p
	out.Root = flip(p.Root)
	for _, s := range out.Scans() {
		s.ApplyBlooms = slices.DeleteFunc(slices.Clone(s.ApplyBlooms), func(id int) bool { return dropped[id] })
	}
	out.Blooms = slices.DeleteFunc(slices.Clone(p.Blooms), func(b plan.BloomSpec) bool { return dropped[b.ID] })
	return &out
}

// orientationCase is one block with a semi, anti or left unit, and a plan
// for it in whichever orientation.
type orientationCase struct {
	name  string
	db    *storage.Database
	block *query.Block
	plan  *plan.Plan
}

// handBuiltOrientationCases are two-relation blocks over small tables that
// stress what a build-side sweep can get wrong: duplicate keys on either
// side, a second join condition, a unit no row of which matches, an empty
// unit and an empty preserve side.
func handBuiltOrientationCases(t *testing.T) []orientationCase {
	t.Helper()
	db := storage.NewDatabase()
	schema := catalog.NewSchema()
	add := func(name string, k1, k2 []int64) {
		tb, err := storage.NewTable(name, []storage.Column{
			{Name: "k1", Kind: catalog.Int64, Ints: k1},
			{Name: "k2", Kind: catalog.Int64, Ints: k2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(tb); err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(storage.Analyze(tb)); err != nil {
			t.Fatal(err)
		}
	}
	// Preserve side: 3000 rows over 40 keys, so every key repeats 75 times
	// and spans several morsels. Unit: 500 rows over keys 20..69, ten rows a
	// key: half the preserve keys match, half the unit's keys match nothing.
	var pk1, pk2, uk1, uk2 []int64
	for i := 0; i < 3000; i++ {
		pk1, pk2 = append(pk1, int64(i%40)), append(pk2, int64(i%3))
	}
	for i := 0; i < 500; i++ {
		uk1, uk2 = append(uk1, int64(20+i%50)), append(uk2, int64(i%2))
	}
	add("pres", pk1, pk2)
	add("unit", uk1, uk2)
	add("far", []int64{1000, 1001, 1001, 1002}, []int64{0, 1, 2, 3})

	none := query.CmpInt{Col: "k1", Op: query.LT, Val: -1}
	var cases []orientationCase
	for _, jt := range []query.JoinType{query.Semi, query.Anti, query.Left} {
		for _, c := range []struct {
			name               string
			unit               string
			presPred, unitPred query.Predicate
			conds              int
		}{
			{"duplicate keys", "unit", nil, nil, 1},
			{"two conditions", "unit", nil, nil, 2},
			{"unit matches nothing", "far", nil, nil, 1},
			{"empty unit", "unit", nil, none, 1},
			{"empty preserve side", "unit", none, nil, 2},
		} {
			conds := []plan.Cond{
				{OuterRel: 0, OuterCol: "k1", InnerRel: 1, InnerCol: "k1"},
				{OuterRel: 0, OuterCol: "k2", InnerRel: 1, InnerCol: "k2"},
			}[:c.conds]
			b := &query.Block{
				Name: fmt.Sprintf("%s/%s", jt, c.name),
				Relations: []query.Relation{
					{Alias: "p", Table: schema.MustTable("pres"), Pred: c.presPred},
					{Alias: "u", Table: schema.MustTable(c.unit), Pred: c.unitPred},
				},
			}
			for _, cd := range conds {
				b.Clauses = append(b.Clauses, query.JoinClause{Type: jt, LeftRel: 0, LeftCol: cd.OuterCol,
					RightRel: 1, RightCol: cd.InnerCol, SubRels: query.NewRelSet(1)})
			}
			p := &plan.Plan{Root: &plan.Join{
				JoinType: jt, Conds: conds,
				Outer: &plan.Scan{Rel: 0, Alias: "p", Table: "pres", Pred: c.presPred},
				Inner: &plan.Scan{Rel: 1, Alias: "u", Table: c.unit, Pred: c.unitPred},
			}}
			cases = append(cases, orientationCase{b.Name, db, b, p})
		}
	}
	return cases
}

// A block's rows do not depend on the side its semi, anti and left joins
// build: every TPC-H block with such a join, and hand-built blocks for the
// corners, run in the orientation the planner chose and in the other one,
// through the reference and through the engine — at DOP 1 and 4, with
// memory unlimited and with a budget below any build side, where the join
// runs as a grace join — and return the same tuples every time.
func TestJoinOrientationInvariant(t *testing.T) {
	ds := equivalenceDataset(t)
	var cases []orientationCase
	for _, num := range []int{4, 13, 16, 18, 20, 21, 22} {
		q, _ := tpch.Get(num)
		block := q.Build(ds.Schema)
		res, err := optimizer.Optimize(block, optimizer.DefaultOptions(0.01))
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		cases = append(cases, orientationCase{fmt.Sprintf("Q%d", num), ds.DB, block, res.Plan})
	}
	cases = append(cases, handBuiltOrientationCases(t)...)

	mirroredRuns, graceMirrored := 0, 0
	for _, c := range cases {
		var want []string
		check := func(what string, rows *RowSet) {
			t.Helper()
			got := canonicalRows(rows)
			if want == nil {
				want = got
				return
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d rows, the first run had %d", c.name, what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s: tuple %d is %q, the first run had %q", c.name, what, i, got[i], want[i])
				}
			}
		}
		for _, p := range []*plan.Plan{c.plan, flipOrientation(c.plan)} {
			mirrored := false
			for _, j := range p.Joins() {
				mirrored = mirrored || j.BuildPreserved
			}
			side := map[bool]string{false: "preserve side probing", true: "preserve side building"}[mirrored]
			for _, dop := range []int{1, 4} {
				_, ref, err := runRows(c.db, c.block, p, Options{DOP: dop, Legacy: true})
				if err != nil {
					t.Fatalf("%s %s: reference dop %d: %v\n%s", c.name, side, dop, err, p.Explain())
				}
				check(fmt.Sprintf("%s, reference dop %d", side, dop), ref)
				for _, budget := range []int64{0, tinyBudget} {
					broker := mem.NewBroker(budget)
					spillRoot := t.TempDir()
					r, rows, err := runRows(c.db, c.block, p, Options{DOP: dop, Broker: broker, SpillDir: spillRoot, morselSize: 256})
					if err != nil {
						t.Fatalf("%s %s: engine dop %d budget %d: %v\n%s", c.name, side, dop, budget, err, p.Explain())
					}
					check(fmt.Sprintf("%s, engine dop %d budget %d", side, dop, budget), rows)
					if err := Audit(AuditState{Broker: broker, SpillDir: spillRoot}); err != nil {
						t.Errorf("%s %s: engine dop %d budget %d: %v", c.name, side, dop, budget, err)
					}
					if mirrored {
						mirroredRuns++
						if r.TotalSpill().Spilled() {
							graceMirrored++
						}
					}
				}
			}
		}
	}
	if mirroredRuns == 0 || graceMirrored == 0 {
		t.Errorf("%d engine runs of a mirrored join, %d of them as grace joins: the test lost its subject", mirroredRuns, graceMirrored)
	}
}
