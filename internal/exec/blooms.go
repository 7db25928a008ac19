package exec

import (
	"fmt"
	"sync"

	"bfcbo/internal/bloom"
	"bfcbo/internal/plan"
	"bfcbo/internal/storage"
)

// BloomRuntime reports what one Bloom filter did at execution time.
type BloomRuntime struct {
	ID         int
	Bits       uint64 // size of the filter's bit vector
	Inserted   uint64
	Tested     int64
	Passed     int64
	Saturation float64
}

// String is the one rendering of a filter's runtime line.
func (b BloomRuntime) String() string {
	return fmt.Sprintf("BF#%d bits=%d inserted=%d tested=%d passed=%d saturation=%.3f",
		b.ID, b.Bits, b.Inserted, b.Tested, b.Passed, b.Saturation)
}

// bloomSet is one run's Bloom filter state: the plan's specs and, once
// the hash join that builds them has its build side, the built filters
// with their runtime records. build is the only place a filter's size is
// decided, its stats taken and the filter published; the engine and the
// reference interpreter both go through it, so the two build bit-identical
// filters, at every DOP.
type bloomSet struct {
	tables []*storage.Table
	specs  map[int]plan.BloomSpec

	mu    sync.Mutex // build sinks of independent joins publish concurrently
	built map[int]*bloomBuild
}

func newBloomSet(tables []*storage.Table, specs []plan.BloomSpec) *bloomSet {
	bs := &bloomSet{tables: tables,
		specs: make(map[int]plan.BloomSpec, len(specs)),
		built: make(map[int]*bloomBuild, len(specs))}
	for _, s := range specs {
		bs.specs[s.ID] = s
	}
	return bs
}

// bloomBuild is one filter of a hash join's build side: under
// construction while the feeder runs, published afterwards.
type bloomBuild struct {
	*bloom.Filter
	vals []int64 // the build relation rel's key column, by row id
	rel  int
	st   *BloomRuntime
	// onJoinKey: the build column is the join's hash-key column, so the
	// build sink's gathered key column holds this filter's keys too.
	onJoinKey bool
}

// insert adds the build rows ids to b's filter, reading their keys by row
// id.
func (b *bloomBuild) insert(ids []int32) {
	for _, rid := range ids {
		b.Add(b.vals[rid])
	}
}

// keyCol resolves one side of filter id, build or apply: the key column of
// relation rel, by base-table row id.
func (bs *bloomSet) keyCol(id, rel int, col string) ([]int64, error) {
	c, err := bs.tables[rel].Column(col)
	if err != nil {
		return nil, fmt.Errorf("exec: bloom %d: %w", id, err)
	}
	return c.Ints, nil
}

// build populates and publishes the Bloom filters of hash join j, whose
// build side holds rows rows: one bloom.Filter per spec, whatever the
// join's §3.9 streaming annotation says — the build side is one shared
// table, so there is nothing to partition a filter by. feed inserts the
// build rows into every filter it is handed, on the caller's goroutine.
func (bs *bloomSet) build(j *plan.Join, rows int, feed func([]*bloomBuild) error) error {
	builds := make([]*bloomBuild, 0, len(j.BuildBlooms))
	for _, id := range j.BuildBlooms {
		spec, ok := bs.specs[id]
		if !ok {
			return fmt.Errorf("exec: join builds unknown Bloom filter %d", id)
		}
		ndv := uint64(spec.EstBuildNDV)
		if ndv == 0 {
			ndv = uint64(rows) + 1
		}
		b := &bloomBuild{Filter: bloom.New(bloom.BitsForNDV(ndv)), st: &BloomRuntime{ID: id}, rel: spec.BuildRel}
		var err error
		if b.vals, err = bs.keyCol(id, spec.BuildRel, spec.BuildCol); err != nil {
			return err
		}
		b.onJoinKey = len(j.Conds) > 0 &&
			spec.BuildRel == j.Conds[0].InnerRel && spec.BuildCol == j.Conds[0].InnerCol
		builds = append(builds, b)
	}
	if err := feed(builds); err != nil {
		return err
	}
	bs.mu.Lock()
	for _, b := range builds {
		b.st.Bits, b.st.Inserted, b.st.Saturation = b.NBits(), b.Inserted(), b.Saturation()
		bs.built[b.st.ID] = b
	}
	bs.mu.Unlock()
	return nil
}

// feedVector is the in-memory feeder: the whole build side is one row
// set. joinKeys, when non-nil, is the join's key column over inner's rows,
// already gathered by the build sink: a filter on the join key reads it in
// order rather than gathering its keys again by row id, which misses
// cache once per key.
func feedVector(inner *RowSet, joinKeys []int64) func([]*bloomBuild) error {
	return func(builds []*bloomBuild) error {
		for _, b := range builds {
			if !b.onJoinKey || joinKeys == nil {
				b.insert(inner.Col(b.rel))
				continue
			}
			for _, k := range joinKeys {
				b.Add(k)
			}
		}
		return nil
	}
}

// bloomProbe is one built filter resolved against the scan that applies
// it: the filter, the apply column by base-table row id, and the runtime
// record the scan's rows in and out of the filter land in.
type bloomProbe struct {
	h    *bloom.Filter
	vals []int64
	st   *BloomRuntime
}

// probesFor resolves the filters scan s applies. Per §3.9 the scan
// "waits" for its filters; in this in-process engine the build side of
// the resolving join has always completed first, so a missing filter is a
// plan bug, not a race.
func (bs *bloomSet) probesFor(s *plan.Scan) ([]bloomProbe, error) {
	var out []bloomProbe
	for _, id := range s.ApplyBlooms {
		bs.mu.Lock()
		b := bs.built[id]
		bs.mu.Unlock()
		if b == nil {
			return nil, fmt.Errorf("exec: scan of %s requires Bloom filter %d which was never built (plan bug)", s.Alias, id)
		}
		spec := bs.specs[id]
		p := bloomProbe{h: b.Filter, st: b.st}
		var err error
		if p.vals, err = bs.keyCol(id, s.Rel, spec.ApplyCol); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// stats lists the runtime records of the filters that ran, in plan order.
func (bs *bloomSet) stats(specs []plan.BloomSpec) []BloomRuntime {
	var out []BloomRuntime
	for _, s := range specs {
		if b, ok := bs.built[s.ID]; ok {
			out = append(out, *b.st)
		}
	}
	return out
}
