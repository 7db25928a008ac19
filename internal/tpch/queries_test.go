package tpch

import (
	"slices"
	"testing"

	"bfcbo/internal/cost"
	"bfcbo/internal/datagen"
	"bfcbo/internal/exec"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
)

func dataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.005, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAllQueriesDefined(t *testing.T) {
	qs := All()
	if len(qs) != 22 {
		t.Fatalf("defined %d queries, want 22", len(qs))
	}
	for i, q := range qs {
		if q.Num != i+1 {
			t.Fatalf("query order wrong at %d: got Q%d", i, q.Num)
		}
		if q.Build == nil || q.Name == "" {
			t.Fatalf("Q%d incomplete", q.Num)
		}
	}
	if _, ok := Get(12); !ok {
		t.Fatal("Get(12) failed")
	}
	if _, ok := Get(99); ok {
		t.Fatal("Get(99) should fail")
	}
}

func TestAnalyzedList(t *testing.T) {
	a := Analyzed()
	if len(a) != 16 {
		t.Fatalf("analyzed count = %d, want 16", len(a))
	}
	omitted := map[int]bool{1: true, 6: true, 13: true, 14: true, 15: true, 22: true}
	for _, n := range a {
		if omitted[n] {
			t.Fatalf("Q%d should be omitted from the analyzed set", n)
		}
	}
}

func TestAllBlocksValidate(t *testing.T) {
	ds := dataset(t)
	for _, q := range All() {
		b := q.Build(ds.Schema)
		if err := b.Validate(); err != nil {
			t.Errorf("Q%d: %v", q.Num, err)
		}
	}
}

// Every query must plan in all four relevant modes and execute with
// identical result cardinality in each — Bloom filters must never change
// query answers.
func TestAllQueriesPlanAndExecuteConsistently(t *testing.T) {
	ds := dataset(t)
	modes := []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO}
	for _, q := range All() {
		rows := make(map[optimizer.Mode]int)
		for _, mode := range modes {
			opts := optimizer.DefaultOptions(ds.Config.ScaleFactor)
			opts.Mode = mode
			b := q.Build(ds.Schema)
			res, err := optimizer.Optimize(b, opts)
			if err != nil {
				t.Fatalf("Q%d %s: optimize: %v", q.Num, mode, err)
			}
			r, err := exec.Run(ds.DB, b, res.Plan, exec.Options{DOP: 4})
			if err != nil {
				t.Fatalf("Q%d %s: exec: %v\n%s", q.Num, mode, err, res.Plan.Explain())
			}
			rows[mode] = r.Rows
		}
		if rows[optimizer.NoBF] != rows[optimizer.BFPost] || rows[optimizer.NoBF] != rows[optimizer.BFCBO] {
			t.Errorf("Q%d result rows differ across modes: %v", q.Num, rows)
		}
	}
}

// Q12 is the paper's Figure 1: BF-CBO must flip the join inputs so that a
// Bloom filter built from (filtered) lineitem applies to orders, and the
// orders scan estimate must drop far below the table size. The figure is
// about the paper's environment — its baseline builds on orders because a
// build row is priced below a probe — so it is asserted under the paper
// cost profile (under the engine profile both modes build on lineitem: see
// TestEngineProfileBuildsSmallSide).
func TestQ12JoinOrderFlip(t *testing.T) {
	ds := dataset(t)
	q, _ := Get(12)

	opts := optimizer.PaperOptions(ds.Config.ScaleFactor)
	opts.Mode = optimizer.BFPost
	post, err := optimizer.Optimize(q.Build(ds.Schema), opts)
	if err != nil {
		t.Fatal(err)
	}
	// BF-Post: the clause is FK (l_orderkey) -> unfiltered PK (o_orderkey)
	// whenever orders ends up on the build side; H3 forbids that filter, so
	// BF-Post gets no Bloom filter on this query (panel a of Figure 1).
	if post.Plan.CountBlooms() != 0 {
		t.Fatalf("BF-Post should apply no Bloom filter on Q12, got %d\n%s",
			post.Plan.CountBlooms(), post.Plan.Explain())
	}

	opts.Mode = optimizer.BFCBO
	cbo, err := optimizer.Optimize(q.Build(ds.Schema), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cbo.Plan.CountBlooms() == 0 {
		t.Fatalf("BF-CBO should apply a Bloom filter to orders on Q12\n%s", cbo.Plan.Explain())
	}
	var found bool
	for _, bf := range cbo.Plan.Blooms {
		// Apply side must be orders (rel 0), build side lineitem (rel 1).
		if bf.ApplyRel == 0 && bf.BuildRel == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected BF built from lineitem applied to orders:\n%s", cbo.Plan.Explain())
	}
	// The orders scan estimate must reflect the filter.
	ordersTable := ds.Schema.MustTable("orders").RowCount
	for _, s := range cbo.Plan.Scans() {
		if s.Rel == 0 && s.Rows >= 0.5*ordersTable {
			t.Fatalf("orders scan estimate %v not reduced (table %v)", s.Rows, ordersTable)
		}
	}
	// The flip itself (panel a vs panel b): lineitem outer under BF-Post,
	// the Bloom-filtered orders outer under BF-CBO.
	if post.Plan.JoinOrderSignature() == cbo.Plan.JoinOrderSignature() {
		t.Fatalf("BF-Post and BF-CBO pick the same Q12 join order %s", cbo.Plan.JoinOrderSignature())
	}
}

// Q7 is the paper's Figure 6: BF-CBO should enable multiple Bloom filters
// with predicate transfer from the nation filters. Asserted under the paper
// cost profile, like Figure 1: with every small side already building, the
// engine profile's BF-Post plan takes the same five filters.
func TestQ7PredicateTransfer(t *testing.T) {
	ds := dataset(t)
	q, _ := Get(7)
	opts := optimizer.PaperOptions(ds.Config.ScaleFactor)
	opts.Mode = optimizer.BFCBO
	cbo, err := optimizer.Optimize(q.Build(ds.Schema), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := optimizer.PaperOptions(ds.Config.ScaleFactor)
	opts2.Mode = optimizer.BFPost
	post, err := optimizer.Optimize(q.Build(ds.Schema), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if cbo.Plan.CountBlooms() <= post.Plan.CountBlooms() {
		t.Fatalf("BF-CBO should enable more Bloom filters than BF-Post on Q7: %d vs %d\ncbo:\n%s\npost:\n%s",
			cbo.Plan.CountBlooms(), post.Plan.CountBlooms(), cbo.Plan.Explain(), post.Plan.Explain())
	}
}

// What the engine cost profile is for, pinned on the blocks ROADMAP item 2
// named, at SF 0.05. By join order: Q3's top hash join builds on orders ⋈
// customer (a few thousand rows) under DefaultOptions, and on lineitem (an
// order of magnitude more) under PaperOptions, where a build row is the
// cheap one. By orientation: the semi, anti and left joins of Q4, Q13, Q21
// and Q22 build their small preserve side under DefaultOptions, not the
// table-sized subquery side the join type used to pin there. (Q21's semi
// join sits below its join with orders, whose filter on l1 the engine's
// Heuristic 5 keeps.)
func TestEngineProfileBuildsSmallSide(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query    int
		opts     optimizer.Options
		build    string
		mirrored bool
	}{
		{3, optimizer.DefaultOptions(0.05), "(o c)", false},
		{3, optimizer.PaperOptions(0.05), "l", false},
		{4, optimizer.DefaultOptions(0.05), "o", true},
		{13, optimizer.DefaultOptions(0.05), "c", true},
		{21, optimizer.DefaultOptions(0.05), "(l1 (s n))", true},
		{22, optimizer.DefaultOptions(0.05), "c", true},
	} {
		q, _ := Get(c.query)
		res, err := optimizer.Optimize(q.Build(ds.Schema), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		// The top join, or for a mirrored case the top semi, anti or left one.
		var top *plan.Join
		for _, j := range res.Plan.Joins() {
			if !c.mirrored || j.JoinType != query.Inner {
				top = j
				break
			}
		}
		if top == nil {
			t.Fatalf("%s profile: Q%d has no such join:\n%s", c.opts.Cost.Name, c.query, res.Plan.Explain())
		}
		if got := (&plan.Plan{Root: top.Inner}).JoinOrderSignature(); got != c.build || top.BuildPreserved != c.mirrored {
			t.Errorf("%s profile: Q%d's %s hash join builds on %s (preserve side building: %v), want %s (%v):\n%s",
				c.opts.Cost.Name, c.query, top.Kind(), got, top.BuildPreserved, c.build, c.mirrored, res.Plan.Explain())
		}
	}
}

// With no transfer term a broadcast only replicates the build, so every
// hash join the engine profile plans is costed Redistribute, in every mode;
// the paper profile plans both strategies. The executor reads the
// annotation to choose the Bloom build strategy, so this is what decides
// which of the two the engine's own plans exercise.
func TestEngineProfileStreaming(t *testing.T) {
	ds := dataset(t)
	seen := map[string]map[cost.Streaming]int{}
	for _, opts := range []optimizer.Options{optimizer.DefaultOptions(ds.Config.ScaleFactor), optimizer.PaperOptions(ds.Config.ScaleFactor)} {
		seen[opts.Cost.Name] = map[cost.Streaming]int{}
		for _, mode := range []optimizer.Mode{optimizer.NoBF, optimizer.BFPost, optimizer.BFCBO} {
			opts.Mode = mode
			for _, q := range All() {
				res, err := optimizer.Optimize(q.Build(ds.Schema), opts)
				if err != nil {
					t.Fatalf("Q%d %s: %v", q.Num, mode, err)
				}
				for _, j := range res.Plan.Joins() {
					seen[opts.Cost.Name][j.Streaming]++
				}
			}
		}
	}
	if e := seen["engine"]; len(e) != 1 || e[cost.Redistribute] == 0 {
		t.Errorf("engine profile streams %v, want RD only", e)
	}
	if p := seen["paper"]; p[cost.BroadcastInner] == 0 || p[cost.Redistribute] == 0 {
		t.Errorf("paper profile streams %v, want both BC and RD", p)
	}
}

// Anti-join queries must never filter the anti clause's preserve side from
// its unit — the join keeps exactly the rows such a filter drops — and may
// filter the unit from the preserve side only at the mirrored join, where
// the preserve side builds.
func TestQ16Q22NoAntiBloom(t *testing.T) {
	ds := dataset(t)
	for _, num := range []int{16, 22} {
		q, _ := Get(num)
		opts := optimizer.DefaultOptions(ds.Config.ScaleFactor)
		opts.Mode = optimizer.BFCBO
		b := q.Build(ds.Schema)
		res, err := optimizer.Optimize(b, opts)
		if err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
		for _, j := range res.Plan.Joins() {
			for _, id := range j.BuildBlooms {
				bf := res.Plan.Blooms[slices.IndexFunc(res.Plan.Blooms, func(s plan.BloomSpec) bool { return s.ID == id })]
				for _, c := range b.Clauses {
					if c.Type != query.Anti {
						continue
					}
					intoPreserve := !c.SubRels.Has(bf.ApplyRel) && c.SubRels.Has(bf.BuildRel)
					intoUnit := c.SubRels.Has(bf.ApplyRel) && !c.SubRels.Has(bf.BuildRel)
					if intoPreserve || (intoUnit && !j.BuildPreserved) {
						t.Errorf("Q%d: Bloom filter crosses anti join: %+v\n%s", num, bf, res.Plan.Explain())
					}
				}
			}
		}
	}
}

func TestPlannerEstimatesSaneOnAllQueries(t *testing.T) {
	ds := dataset(t)
	for _, q := range All() {
		opts := optimizer.DefaultOptions(ds.Config.ScaleFactor)
		res, err := optimizer.Optimize(q.Build(ds.Schema), opts)
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		if res.Plan.Root.EstRows() < 0 || res.Plan.Root.EstCost() <= 0 {
			t.Errorf("Q%d: degenerate estimates rows=%v cost=%v",
				q.Num, res.Plan.Root.EstRows(), res.Plan.Root.EstCost())
		}
	}
}

// Q18's subquery side keeps the lineitems of one quantity in fifty. The
// estimate sizes three Bloom filters, so it has to be about right: a
// continuous reading of the 50-value column put it fifty times too low.
func TestQ18SubqueryEstimate(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Get(18)
	b := q.Build(ds.Schema)
	opts := optimizer.DefaultOptions(0.01)
	opts.Mode = optimizer.NoBF
	res, err := optimizer.Optimize(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.Run(ds.DB, b, res.Plan, exec.Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Plan.Scans() {
		if s.Alias != "l2" {
			continue
		}
		actual := r.ActualFor(s)
		if actual <= 0 || s.Rows < 0.95*actual || s.Rows > 1.05*actual {
			t.Errorf("Q18 l2: estimated %.0f rows, actual %.0f; want within 5 %%", s.Rows, actual)
		}
		return
	}
	t.Fatal("Q18 plan has no scan of l2")
}
