package exec

import (
	"fmt"
	"sync"

	"bfcbo/internal/bloom"
	"bfcbo/internal/cost"
	"bfcbo/internal/plan"
	"bfcbo/internal/storage"
)

// BloomRuntime reports what one Bloom filter did at execution time.
type BloomRuntime struct {
	ID         int
	Strategy   string // "single" or "partitioned"
	Inserted   uint64
	Tested     int64
	Passed     int64
	Saturation float64
}

// bloomHandle abstracts single and partitioned filters for probing. The
// caller mixes the key once (bloom.KeyHash, the hash shared with the join
// tables) and both filter probe positions derive from that one value.
// FilterSelHashes is the vectorized form: it compacts a selection vector
// by a batch of precomputed hashes; FilterSelHashesCarry additionally
// compacts a second vector in lockstep (the scan's batch hash side channel
// — calling with carry == hashes is safe).
type bloomHandle interface {
	MayContainHash(h uint64) bool
	FilterSelHashes(hashes []uint64, sel []int32) []int32
	FilterSelHashesCarry(hashes []uint64, sel []int32, carry []uint64) ([]int32, []uint64)
}

// bloomTarget is a filter under construction; *bloom.Filter and
// *bloom.Partitioned both are one.
type bloomTarget interface {
	bloomHandle
	Inserted() uint64
	Saturation() float64
}

// bloomSet is one run's Bloom filter state: the plan's specs and, once
// the hash join that builds them has its build side, the built filters
// with their runtime records. build is the only place a filter's strategy
// and size are decided, its stats taken and the filter published; the
// engine and the reference interpreter both go through it, so the two
// build bit-identical filters at the same dop.
type bloomSet struct {
	tables []*storage.Table
	specs  map[int]plan.BloomSpec
	// dop selects the strategy (see build); how many workers actually
	// insert is the feeder's business.
	dop int

	mu    sync.Mutex // build sinks of independent joins publish concurrently
	built map[int]*bloomBuild
}

func newBloomSet(tables []*storage.Table, specs []plan.BloomSpec, dop int) *bloomSet {
	bs := &bloomSet{tables: tables, dop: dop,
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
	bloomTarget
	bloomCols // of the build relation rel
	rel       int
	st        *BloomRuntime
	ndv       uint64
	// onJoinKey: the build column is the join's hash-key column, so the
	// build sink's hash vector is this filter's hash vector too.
	onJoinKey bool
	scratch   []uint64 // insert's hash vector, reused across chunks
}

// bloomCols is one side of a filter — build or apply: its key column(s)
// indexed by base-table row id (vals2 nil for a one-column filter). Both
// sides must derive the key the same way, which hashOf guarantees.
type bloomCols struct{ vals, vals2 []int64 }

func (c bloomCols) hashOf(rid int32) uint64 {
	key := c.vals[rid]
	if c.vals2 != nil {
		key = bloom.CombineKeys(key, c.vals2[rid])
	}
	return bloom.KeyHash(key)
}

// insert adds build rows to dst: b's own filter or a partial of it.
// hashes, when non-nil, is the rows' precomputed KeyHash vector — the
// inserts then never rehash; otherwise the rows ids are hashed into b's
// scratch, so only one goroutine at a time may insert by ids.
func (b *bloomBuild) insert(dst bloomTarget, ids []int32, hashes []uint64) {
	if hashes == nil {
		hashes = b.scratch[:0]
		for _, rid := range ids {
			hashes = append(hashes, b.hashOf(rid))
		}
		b.scratch = hashes
	}
	// Concrete receivers: AddHash's two bit sets inline into the loops.
	switch t := dst.(type) {
	case *bloom.Filter:
		for _, h := range hashes {
			t.AddHash(h)
		}
	case *bloom.Partitioned:
		for _, h := range hashes {
			t.AddHash(h)
		}
	}
}

// keyCols resolves one side of filter id: the key column of relation rel
// and, for a two-column filter, the second one.
func (bs *bloomSet) keyCols(id, rel int, col, col2 string) (kc bloomCols, err error) {
	c, err := bs.tables[rel].Column(col)
	if err != nil {
		return kc, fmt.Errorf("exec: bloom %d: %w", id, err)
	}
	kc.vals = c.Ints
	if col2 != "" {
		if c, err = bs.tables[rel].Column(col2); err != nil {
			return kc, fmt.Errorf("exec: bloom %d: %w", id, err)
		}
		kc.vals2 = c.Ints
	}
	return kc, nil
}

// build populates and publishes the Bloom filters of hash join j, whose
// build side holds rows rows. The §3.9 strategy follows the join's
// streaming annotation: a serial run or a broadcast build side makes one
// filter (the n broadcast copies are redundant, so one copy is inserted);
// a redistributed build makes dop partial filters, one per partition,
// probed by distributed lookup on the key. feed inserts the build rows
// into every filter it is handed.
func (bs *bloomSet) build(j *plan.Join, rows int, feed func([]*bloomBuild) error) error {
	if j.Method != plan.HashJoin {
		return fmt.Errorf("exec: Bloom filters can only be built at hash joins, got %s", j.Method)
	}
	builds := make([]*bloomBuild, 0, len(j.BuildBlooms))
	for _, id := range j.BuildBlooms {
		spec, ok := bs.specs[id]
		if !ok {
			return fmt.Errorf("exec: join builds unknown Bloom filter %d", id)
		}
		b := &bloomBuild{st: &BloomRuntime{ID: id}, rel: spec.BuildRel, ndv: uint64(spec.EstBuildNDV)}
		if b.ndv == 0 {
			b.ndv = uint64(rows) + 1
		}
		var err error
		if b.bloomCols, err = bs.keyCols(id, spec.BuildRel, spec.BuildCol, spec.BuildCol2); err != nil {
			return err
		}
		b.onJoinKey = spec.BuildCol2 == "" && len(j.Conds) > 0 &&
			spec.BuildRel == j.Conds[0].InnerRel && spec.BuildCol == j.Conds[0].InnerCol
		if bs.dop <= 1 || j.Streaming == cost.BroadcastInner {
			b.bloomTarget, b.st.Strategy = bloom.NewForNDV(b.ndv), "single"
		} else {
			// Size each partition for a generous share of the NDV
			// estimate: estimates run low and key skew concentrates
			// values, so a tight ndv/dop budget would inflate the FPR.
			pf, err := bloom.NewPartitioned(bs.dop, (2*b.ndv)/uint64(bs.dop)+16)
			if err != nil {
				return err
			}
			b.bloomTarget, b.st.Strategy = pf, "partitioned"
		}
		builds = append(builds, b)
	}
	if err := feed(builds); err != nil {
		return err
	}
	bs.mu.Lock()
	for _, b := range builds {
		b.st.Inserted, b.st.Saturation = b.Inserted(), b.Saturation()
		bs.built[b.st.ID] = b
	}
	bs.mu.Unlock()
	return nil
}

// feedVector is the in-memory feeder: the whole build side is one row
// set. joinHashes, when non-nil, is the KeyHash vector of the join's key
// column over inner's rows — each build key is then mixed once, for the
// Bloom bits, the partition routing and the join directory alike. Above
// the breaker fan-out threshold the inserts run across workers goroutines;
// bit-vector OR is commutative and Inserted counts sum, so the filters
// come out the same for every workers value.
func (bs *bloomSet) feedVector(inner *RowSet, joinHashes []uint64, workers int) func([]*bloomBuild) error {
	return func(builds []*bloomBuild) error {
		for _, b := range builds {
			ids, hashes := inner.Col(b.rel), joinHashes
			if !b.onJoinKey {
				hashes = nil
			}
			n := len(ids)
			// Weight 4: one key mix, one derived rehash and two bit sets
			// per row, plus the final union.
			if !parallelFinishThreshold(n, 4, workers) {
				b.insert(b.bloomTarget, ids, hashes)
				continue
			}
			if hashes == nil {
				hashes = make([]uint64, n)
				parallelFor(workers, func(c int) {
					for i, hi := c*n/workers, (c+1)*n/workers; i < hi; i++ {
						hashes[i] = b.hashOf(ids[i])
					}
				})
			}
			switch t := b.bloomTarget.(type) {
			case *bloom.Filter:
				// One filter from per-worker partials, unioned.
				partials := make([]*bloom.Filter, workers)
				parallelFor(workers, func(c int) {
					partials[c] = bloom.NewForNDV(b.ndv)
					b.insert(partials[c], nil, hashes[c*n/workers:(c+1)*n/workers])
				})
				for _, p := range partials {
					if err := t.Union(p); err != nil {
						return err
					}
				}
			case *bloom.Partitioned:
				// Each partition's owner inserts its share of the hashes, so
				// no two goroutines touch one partial filter.
				nparts := uint64(bs.dop)
				parallelFor(bs.dop, func(part int) {
					f := t.Part(part)
					for _, h := range hashes {
						if h%nparts == uint64(part) {
							f.AddHash(h)
						}
					}
				})
			}
		}
		return nil
	}
}

// bloomProbe is one built filter resolved against the scan that applies
// it: the handle, the apply column(s) by base-table row id, and the
// runtime record the scan's tested/passed tallies land in.
type bloomProbe struct {
	h bloomHandle
	bloomCols
	col string // the filtered column (the first, for multi-column)
	st  *BloomRuntime
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
		p := bloomProbe{h: b.bloomTarget, col: spec.ApplyCol, st: b.st}
		var err error
		if p.bloomCols, err = bs.keyCols(id, s.Rel, spec.ApplyCol, spec.ApplyCol2); err != nil {
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
