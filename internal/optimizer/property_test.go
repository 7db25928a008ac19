package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"bfcbo/internal/catalog"
	"bfcbo/internal/cost"
	"bfcbo/internal/exec"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// propRNG is a tiny deterministic generator for the randomized plan tests.
type propRNG struct{ s uint64 }

func (r *propRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *propRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomDatabase builds a random join graph of 3-6 tables with random sizes,
// key domains and filters, plus the actual stored data, so optimizer output
// can be executed and cross-checked.
func randomDatabase(seed uint64) (*storage.Database, *query.Block) {
	rng := &propRNG{s: seed}
	n := 3 + rng.intn(4)
	db := storage.NewDatabase()
	b := &query.Block{Name: fmt.Sprintf("prop-%d", seed)}

	type tbl struct {
		rows int
		dom  int
	}
	tabs := make([]tbl, n)
	for i := range tabs {
		tabs[i] = tbl{rows: 50 + rng.intn(2000), dom: 10 + rng.intn(200)}
	}
	for i, tc := range tabs {
		keys := make([]int64, tc.rows)
		vals := make([]int64, tc.rows)
		for j := range keys {
			keys[j] = int64(rng.intn(tc.dom))
			vals[j] = int64(rng.intn(100))
		}
		st, err := storage.NewTable(fmt.Sprintf("t%d", i), []storage.Column{
			{Name: "k", Kind: catalog.Int64, Ints: keys},
			{Name: "v", Kind: catalog.Int64, Ints: vals},
		})
		if err != nil {
			panic(err)
		}
		if err := db.AddTable(st); err != nil {
			panic(err)
		}
		meta := storage.Analyze(st)
		var pred query.Predicate
		if rng.intn(2) == 0 {
			pred = query.CmpInt{Col: "v", Op: query.LT, Val: int64(5 + rng.intn(90))}
		}
		b.Relations = append(b.Relations, query.Relation{Alias: st.Name, Table: meta, Pred: pred})
	}
	// Random connected join graph: each relation i>0 joins a random earlier
	// relation on k=k.
	for i := 1; i < n; i++ {
		j := rng.intn(i)
		b.Clauses = append(b.Clauses, query.JoinClause{
			Type: query.Inner, LeftRel: j, LeftCol: "k", RightRel: i, RightCol: "k"})
	}
	return db, b
}

// randomUnitDatabase is randomDatabase with its last relation — a leaf of
// the join graph by construction — turned into the one-relation unit of a
// semi, anti or left join, so the planner has both orientations to choose
// from and the executor both to run.
func randomUnitDatabase(seed uint64) (*storage.Database, *query.Block) {
	db, b := randomDatabase(seed)
	c := &b.Clauses[len(b.Clauses)-1]
	c.Type = []query.JoinType{query.Semi, query.Anti, query.Left}[seed%3]
	c.SubRels = query.NewRelSet(c.RightRel)
	return db, b
}

// Property: for random join graphs, every optimizer mode produces a plan
// that (a) covers all relations, (b) executes without error, and (c) yields
// exactly the same result cardinality — Bloom filters and join-order changes
// must never alter query answers.
func TestPropertyModesAgreeOnRandomBlocks(t *testing.T) {
	// The plans are executed, so they are the engine profile's; the Naive
	// searches make a second profile cost seconds for no new code path.
	profile := cost.Engine()
	// Seeds 26 to 43 get a semi, anti or left unit; 44 draws a 65 M-row
	// left join.
	for seed := uint64(1); seed <= 43; seed++ {
		db, b := randomDatabase(seed)
		if seed > 25 {
			db, b = randomUnitDatabase(seed)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := Options{
			Mode: NoBF, Cost: profile,
			Heuristics: Heuristics{
				H1LargerOnly: true, H2MinApplyRows: 30, H3FKLosslessPK: true,
				H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9,
			},
			MaxPlansPerSet: 100_000,
		}
		modes := []Mode{NoBF, BFPost, BFCBO, Naive}
		if len(b.Relations) > 4 {
			// Naive mode is deliberately exponential (§3.1); exercising it
			// on larger graphs belongs to the blow-up benchmark, not here.
			modes = modes[:3]
		}
		var want int
		for i, mode := range modes {
			opts.Mode = mode
			res, err := Optimize(cloneBlock(b), opts)
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, mode, err)
			}
			if res.Plan.Root.Rels() != b.AllRels() {
				t.Fatalf("seed %d mode %s: plan covers %s of %s",
					seed, mode, res.Plan.Root.Rels(), b.AllRels())
			}
			r, err := exec.Run(db, b, res.Plan, exec.Options{DOP: 1 + int(seed%4)})
			if err != nil {
				t.Fatalf("seed %d mode %s: exec: %v\n%s", seed, mode, err, res.Plan.Explain())
			}
			if i == 0 {
				want = r.Rows
			} else if r.Rows != want {
				t.Fatalf("seed %d mode %s: %d rows, want %d\n%s",
					seed, mode, r.Rows, want, res.Plan.Explain())
			}
		}
	}
}

// Property: BF-CBO's final cost never exceeds plain CBO's — the expanded
// plan space strictly contains the original one.
func TestPropertyBFCBOCostNoWorse(t *testing.T) { eachProfile(t, propertyBFCBOCostNoWorse) }

func propertyBFCBOCostNoWorse(t *testing.T, profile cost.Params) {
	for seed := uint64(100); seed <= 150; seed++ {
		_, b := randomDatabase(seed)
		if seed > 120 {
			// A unit's mirrored candidate must not cost the search the
			// plans that do without it.
			_, b = randomUnitDatabase(seed)
		}
		opts := Options{
			Mode: NoBF, Cost: profile,
			Heuristics: Heuristics{
				H1LargerOnly: true, H2MinApplyRows: 30, H3FKLosslessPK: true,
				H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9,
			},
			MaxPlansPerSet: 100_000,
			// Cost comparison must exclude post-added filters (they do not
			// change costs).
			DisablePostPass: true,
		}
		plain, err := Optimize(cloneBlock(b), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts.Mode = BFCBO
		cbo, err := Optimize(cloneBlock(b), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cbo.Plan.Root.EstCost() > plain.Plan.Root.EstCost()*1.000001 {
			t.Fatalf("seed %d: BF-CBO cost %v exceeds plain %v",
				seed, cbo.Plan.Root.EstCost(), plain.Plan.Root.EstCost())
		}
	}
}

// Property: in any BF-CBO plan, every Bloom filter's build relation appears
// on the inner side of the hash join that builds it, and the apply relation
// in its outer subtree — the structural soundness condition of §3.6. Across
// a semi, anti or left join, in either orientation, that leaves §3.3's
// restriction to check: an anti or left join whose preserve side probes
// builds no filter, and a filter built on a preserve side reaches the unit
// only through the mirrored join.
func TestPropertyBloomPlacementSound(t *testing.T) { eachProfile(t, propertyBloomPlacementSound) }

func propertyBloomPlacementSound(t *testing.T, profile cost.Params) {
	mirrored, unitFilters := 0, 0
	for seed := uint64(200); seed <= 290; seed++ {
		_, b := randomDatabase(seed)
		if seed > 230 {
			_, b = randomUnitDatabase(seed)
		}
		opts := Options{
			Mode: BFCBO, Cost: profile,
			Heuristics: Heuristics{
				H1LargerOnly: true, H2MinApplyRows: 30, H3FKLosslessPK: true,
				H5MaxBuildNDV: 1e9, H6MaxKeepFraction: 0.9,
			},
			MaxPlansPerSet: 100_000,
		}
		res, err := Optimize(cloneBlock(b), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := res.Plan
		for _, j := range p.Joins() {
			if j.JoinType != query.Inner {
				unit := b.Clauses[len(b.Clauses)-1].SubRels
				probing, building := "preserve side", j.Inner.Rels()
				if j.BuildPreserved {
					probing, building = "unit", j.Outer.Rels()
					mirrored++
					unitFilters += len(j.BuildBlooms)
				}
				if building != unit {
					t.Fatalf("seed %d: %s join with its %s probing does not have the unit %s on the other side:\n%s",
						seed, j.JoinType, probing, unit, p.Explain())
				}
				if !j.BuildPreserved && j.JoinType != query.Semi && len(j.BuildBlooms) > 0 {
					t.Fatalf("seed %d: %s join filters its preserve side with %v:\n%s", seed, j.JoinType, j.BuildBlooms, p.Explain())
				}
			} else if j.BuildPreserved {
				t.Fatalf("seed %d: inner join marked build-preserved:\n%s", seed, p.Explain())
			}
			for _, id := range j.BuildBlooms {
				i := slices.IndexFunc(p.Blooms, func(s plan.BloomSpec) bool { return s.ID == id })
				if i < 0 {
					t.Fatalf("seed %d: join builds unknown filter %d", seed, id)
				}
				spec := p.Blooms[i]
				if !j.Inner.Rels().Has(spec.BuildRel) {
					t.Fatalf("seed %d: filter %d built at join whose inner %s lacks build rel %d",
						seed, id, j.Inner.Rels(), spec.BuildRel)
				}
				if !j.Outer.Rels().Has(spec.ApplyRel) {
					t.Fatalf("seed %d: filter %d applies to rel %d outside outer %s",
						seed, id, spec.ApplyRel, j.Outer.Rels())
				}
			}
		}
		// Every filter referenced by a scan must be built exactly once.
		built := map[int]int{}
		for _, j := range p.Joins() {
			for _, id := range j.BuildBlooms {
				built[id]++
			}
		}
		for _, s := range p.Scans() {
			for _, id := range s.ApplyBlooms {
				if built[id] != 1 {
					t.Fatalf("seed %d: filter %d built %d times", seed, id, built[id])
				}
			}
		}
	}
	if mirrored == 0 || unitFilters == 0 {
		t.Errorf("%d mirrored joins building %d filters: the property never saw a preserve-built filter reach a unit", mirrored, unitFilters)
	}
}

// eachProfile runs a property under both cost profiles: the properties are
// about the search, not about either calibration.
func eachProfile(t *testing.T, prop func(*testing.T, cost.Params)) {
	for _, p := range []cost.Params{cost.Paper(), cost.Engine()} {
		t.Run(p.Name, func(t *testing.T) { prop(t, p) })
	}
}

func cloneBlock(b *query.Block) *query.Block {
	nb := &query.Block{Name: b.Name}
	nb.Relations = append(nb.Relations, b.Relations...)
	nb.Clauses = append(nb.Clauses, b.Clauses...)
	return nb
}
