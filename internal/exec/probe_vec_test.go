package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/hashtab"
	"bfcbo/internal/optimizer"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// TestProbeRandomMatchesLegacy is the probe kernel's property suite:
// randomized join inputs — duplicate-heavy and sparse key domains, extra
// non-hash conditions, selective and build-emptying predicates (which
// drive the probe through long runs of empty batches) — across all four
// join types, at DOP 1 and 3, against the legacy interpreter. Results
// compare as canonical multisets (worker interleaving reorders parts).
func TestProbeRandomMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nOuter := 1 + rng.Intn(2000)
		nInner := 1 + rng.Intn(400)
		dom := int64(1 + rng.Intn(40)) // small domains force duplicate keys

		ok1 := make([]int64, nOuter)
		ok2 := make([]int64, nOuter)
		for i := range ok1 {
			ok1[i] = rng.Int63n(dom)
			ok2[i] = rng.Int63n(3)
		}
		ik1 := make([]int64, nInner)
		ik2 := make([]int64, nInner)
		for i := range ik1 {
			ik1[i] = rng.Int63n(dom)
			ik2[i] = rng.Int63n(3)
		}
		db := storage.NewDatabase()
		schema := catalog.NewSchema()
		outer, err := storage.NewTable("po", []storage.Column{
			{Name: "k1", Kind: catalog.Int64, Ints: ok1},
			{Name: "k2", Kind: catalog.Int64, Ints: ok2},
		})
		if err != nil {
			t.Fatal(err)
		}
		inner, err := storage.NewTable("pi", []storage.Column{
			{Name: "k1", Kind: catalog.Int64, Ints: ik1},
			{Name: "k2", Kind: catalog.Int64, Ints: ik2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*storage.Table{outer, inner} {
			if err := db.AddTable(tb); err != nil {
				t.Fatal(err)
			}
			if err := schema.AddTable(storage.Analyze(tb)); err != nil {
				t.Fatal(err)
			}
		}

		// Predicates: sometimes none, sometimes selective, sometimes
		// emptying a whole side (an empty build side or an all-filtered
		// probe side is a valid, interesting batch stream).
		var innerPred, outerPred query.Predicate
		switch rng.Intn(4) {
		case 0:
			innerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: 0}
		case 1:
			innerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: dom / 2}
		}
		if rng.Intn(4) == 0 {
			outerPred = query.CmpInt{Col: "k1", Op: query.LT, Val: dom / 3}
		}
		conds := []plan.Cond{{OuterRel: 0, OuterCol: "k1", InnerRel: 1, InnerCol: "k1"}}
		if trial%2 == 0 {
			conds = append(conds, plan.Cond{OuterRel: 0, OuterCol: "k2", InnerRel: 1, InnerCol: "k2"})
		}
		morsel := []int{0, 64, 257}[trial%3]

		for _, jt := range []query.JoinType{query.Inner, query.Left, query.Semi, query.Anti} {
			var skip query.RelSet
			if jt == query.Semi || jt == query.Anti {
				skip = query.NewRelSet(1)
			}
			b := &query.Block{
				Name: "prop",
				Relations: []query.Relation{
					{Alias: "o", Table: schema.MustTable("po"), Pred: outerPred},
					{Alias: "i", Table: schema.MustTable("pi"), Pred: innerPred},
				},
				Clauses: []query.JoinClause{
					{Type: jt, LeftRel: 0, LeftCol: "k1", RightRel: 1, RightCol: "k1", SubRels: skip},
				},
			}
			p := &plan.Plan{Root: &plan.Join{
				Method: plan.HashJoin, JoinType: jt,
				Outer: &plan.Scan{Rel: 0, Alias: "o", Table: "po", Pred: outerPred},
				Inner: &plan.Scan{Rel: 1, Alias: "i", Table: "pi", Pred: innerPred},
				Conds: conds,
			}}
			for _, dop := range []int{1, 3} {
				ref, err := Run(db, b, p, Options{DOP: dop, Legacy: true})
				if err != nil {
					t.Fatalf("trial %d %s: legacy dop %d: %v", trial, jt, dop, err)
				}
				got, err := Run(db, b, p, Options{DOP: dop, morselSize: morsel})
				if err != nil {
					t.Fatalf("trial %d %s: pipelined dop %d: %v", trial, jt, dop, err)
				}
				want, have := canonicalRows(ref.Out, skip), canonicalRows(got.Out, skip)
				if len(have) != len(want) {
					t.Fatalf("trial %d %s dop %d: rows diverge: pipelined=%d legacy=%d",
						trial, jt, dop, len(have), len(want))
				}
				for i := range want {
					if have[i] != want[i] {
						t.Fatalf("trial %d %s dop %d: tuple %d diverges: pipelined=%q legacy=%q",
							trial, jt, dop, i, have[i], want[i])
					}
				}
			}
		}
	}
}

// A Bloom-filtered probe-spine scan shares its hash work with the join:
// the run must report carried hashes (that carrying does not change
// results is the equivalence suite's business: Q7 and Q12 carry).
func TestProbeHashCarry(t *testing.T) {
	db, schema := fixture(t)
	b := factDimBlock(schema, query.Inner)
	_, vec := optimizeAndRun(t, db, b, optimizer.BFCBO, 2)
	var reused int64
	for _, st := range vec.OpStats {
		reused += st.HashReusedKeys
	}
	if reused == 0 {
		t.Fatalf("no probe hashes carried from the Bloom-filtered scan: %+v", vec.OpStats)
	}
}

// Scan-produced dictionary codes must ride the batch into the fold when
// the group key column is on the probe spine — and the carried codes must
// give exactly the groups the legacy interpreter interns row by row.
func TestFoldDictCarryFromScan(t *testing.T) {
	db, b, p := dictCarryFixture(t)
	specs := []AggSpec{
		{Kind: AggGroupCount, KeyRel: 0, KeyCol: "g"},
		{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"},
	}
	legacy, err := Run(db, b, p, Options{DOP: 1, Legacy: true, Aggregates: specs})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Aggregates[0].Groups["g0"] != 4000/8 {
		t.Fatalf("group g0 = %d, want %d", legacy.Aggregates[0].Groups["g0"], 4000/8)
	}
	for _, dop := range []int{1, 2} {
		r, err := Run(db, b, p, Options{DOP: dop, morselSize: 256, Aggregates: specs})
		if err != nil {
			t.Fatal(err)
		}
		var carried int64
		for _, ps := range r.Pipelines {
			carried += ps.FoldCodeReused
		}
		if carried == 0 {
			t.Fatalf("dop %d: no fold codes carried from the scan dictionary: %+v", dop, r.Pipelines)
		}
		if d := diffAggregates(legacy.Aggregates, r.Aggregates); d != "" {
			t.Fatalf("dop %d: legacy vs carried codes: %s", dop, d)
		}
	}
}

// NaN measures: a NaN poisons exactly the sums it was added to — the
// total and its own group — identically in the streaming fold and the
// legacy interpreter, at any DOP; the other groups stay finite.
func TestFoldNaNMeasures(t *testing.T) {
	const n = 2000
	g := make([]string, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := range g {
		g[i] = fmt.Sprintf("g%d", i%5)
		price[i] = math.Pow(2, float64(i%10))
		if i%5 == 3 && i%7 == 0 {
			price[i] = math.NaN()
		}
	}
	tbl, err := storage.NewTable("nanf", []storage.Column{
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
		Name:      "nan",
		Relations: []query.Relation{{Alias: "t", Table: schema.MustTable("nanf")}},
	}
	p := &plan.Plan{Root: &plan.Scan{Rel: 0, Alias: "t", Table: "nanf"}}
	specs := []AggSpec{
		{Kind: AggSum, Rel: 0, Col: "p"},
		{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"},
	}
	legacy, err := Run(db, b, p, Options{DOP: 1, Legacy: true, Aggregates: specs})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 4} {
		r, err := Run(db, b, p, Options{DOP: dop, morselSize: 64, Aggregates: specs})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffAggregates(legacy.Aggregates, r.Aggregates); d != "" {
			t.Fatalf("dop %d: legacy vs streaming: %s", dop, d)
		}
		if !math.IsNaN(r.Aggregates[0].Sum) {
			t.Fatalf("dop %d: total = %v, want NaN", dop, r.Aggregates[0].Sum)
		}
		for k, sum := range r.Aggregates[1].GroupSums {
			if math.IsNaN(sum) != (k == "g3") {
				t.Fatalf("dop %d: group %q sum = %v; only g3 is poisoned", dop, k, sum)
			}
		}
	}
}

// benchProbeFixture builds a standalone probe kernel: a 1024-row build
// side keyed over 512 distinct values and a 1024-row probe batch, the
// steady-state shape the CI 0-allocs gate measures.
func benchProbeFixture(extras bool) (*probeShared, *hashTable, *Batch, *probeScratch) {
	const nBuild, nProbe = 1024, 1024
	innerRS := NewRowSet(query.NewRelSet(1))
	ids := make([]int32, nBuild)
	buildKeys := make([]int64, nBuild)
	for i := range ids {
		ids[i] = int32(i)
		buildKeys[i] = int64(i % 512)
	}
	innerRS.cols[0] = ids
	hashes := hashtab.HashVec(buildKeys, nil)
	tab, err := hashtab.Build(buildKeys, hashes, nil)
	if err != nil {
		panic(err)
	}
	ht := &hashTable{inner: innerRS, innerKeys: buildKeys, tabs: []*hashtab.JoinTable{tab}}
	conds := []plan.Cond{{OuterRel: 0, OuterCol: "k", InnerRel: 1, InnerCol: "k"}}
	outerKeys := make([]int64, nProbe)
	for i := range outerKeys {
		outerKeys[i] = int64(i % 600) // ~85% hit rate
	}
	sh := &probeShared{
		j:         &plan.Join{Method: plan.HashJoin, JoinType: query.Inner, Conds: conds},
		ht:        ht,
		outRels:   query.NewRelSet(0, 1),
		outerVals: [][]int64{outerKeys},
		outerRels: []int{0},
		stats:     &opStats{},
	}
	if extras {
		extraOuter := make([]int64, nProbe)
		extraInner := make([]int64, nBuild)
		for i := range extraOuter {
			extraOuter[i] = int64(i % 2)
		}
		for i := range extraInner {
			extraInner[i] = int64(i % 2)
		}
		sh.j.Conds = append(sh.j.Conds, plan.Cond{OuterRel: 0, OuterCol: "e", InnerRel: 1, InnerCol: "e"})
		sh.outerVals = append(sh.outerVals, extraOuter)
		sh.outerRels = append(sh.outerRels, 0)
		ht.innerExtras = [][]int64{extraInner}
	}
	sh.wiring = newColWiring(sh.outRels, query.NewRelSet(0), query.NewRelSet(1))
	inRS := NewRowSet(query.NewRelSet(0))
	col := make([]int32, nProbe)
	for i := range col {
		col[i] = int32(i)
	}
	inRS.cols[0] = col
	return sh, ht, &Batch{rows: inRS}, &probeScratch{}
}

// BenchmarkProbeBatch measures the steady-state probe kernel.
// CI gates on 0 allocs/op: the per-worker scratch must absorb every
// batch after warm-up.
func BenchmarkProbeBatch(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		extras bool
	}{{"hash-only", false}, {"extra-cond", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			sh, ht, in, scr := benchProbeFixture(cfg.extras)
			if out := sh.probeBatch(ht, in, scr); out.Len() == 0 {
				b.Fatal("probe produced no rows")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := sh.probeBatch(ht, in, scr)
				if out.Len() == 0 {
					b.Fatal("probe produced no rows")
				}
			}
		})
	}
}

// BenchmarkAggFold measures the steady-state group fold. CI
// gates on 0 allocs/op once the partial's table and the fold scratch are
// warm.
func BenchmarkAggFold(b *testing.B) {
	const n, groups = 1024, 16
	names := make([]string, groups)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
	}
	codes := make([]int32, n)
	price := make([]float64, n)
	disc := make([]float64, n)
	for i := 0; i < n; i++ {
		codes[i] = int32(i % groups)
		price[i] = float64(100 + i)
		disc[i] = float64(i%5) / 10
	}
	rs := NewRowSet(query.NewRelSet(0))
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	rs.cols[0] = ids
	batch := &Batch{rows: rs}
	dict := &groupDict{names: names, codes: codes}
	for _, cfg := range []struct {
		name string
		spec AggSpec
	}{
		{"group-count", AggSpec{Kind: AggGroupCount, KeyRel: 0, KeyCol: "g"}},
		{"group-revenue", AggSpec{Kind: AggGroupRevenue, KeyRel: 0, KeyCol: "g", Rel: 0, PriceCol: "p", DiscCol: "d"}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			a := &aggCols{spec: cfg.spec, price: price, disc: disc, dict: dict}
			p := &aggPartial{}
			scr := &aggScratch{}
			a.foldBatch(p, batch, scr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.foldBatch(p, batch, scr)
			}
		})
	}
}
