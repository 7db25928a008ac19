package exec

import (
	"math/rand"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/hashtab"
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
			var unit query.RelSet
			if jt != query.Inner {
				unit = query.NewRelSet(1)
			}
			b := &query.Block{
				Name: "prop",
				Relations: []query.Relation{
					{Alias: "o", Table: schema.MustTable("po"), Pred: outerPred},
					{Alias: "i", Table: schema.MustTable("pi"), Pred: innerPred},
				},
				Clauses: []query.JoinClause{
					{Type: jt, LeftRel: 0, LeftCol: "k1", RightRel: 1, RightCol: "k1", SubRels: unit},
				},
			}
			p := &plan.Plan{Root: &plan.Join{
				JoinType: jt,
				Outer:    &plan.Scan{Rel: 0, Alias: "o", Table: "po", Pred: outerPred},
				Inner:    &plan.Scan{Rel: 1, Alias: "i", Table: "pi", Pred: innerPred},
				Conds:    conds,
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
				want, have := canonicalRows(ref.Out), canonicalRows(got.Out)
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
	ht := &hashTable{inner: innerRS, innerKeys: buildKeys, tab: tab}
	conds := []plan.Cond{{OuterRel: 0, OuterCol: "k", InnerRel: 1, InnerCol: "k"}}
	outerKeys := make([]int64, nProbe)
	for i := range outerKeys {
		outerKeys[i] = int64(i % 600) // ~85% hit rate
	}
	sh := &probeShared{
		j:         &plan.Join{JoinType: query.Inner, Conds: conds},
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
			if out := sh.probeBatch(ht, in, scr, nil); out.Len() == 0 {
				b.Fatal("probe produced no rows")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := sh.probeBatch(ht, in, scr, nil)
				if out.Len() == 0 {
					b.Fatal("probe produced no rows")
				}
			}
		})
	}
}
