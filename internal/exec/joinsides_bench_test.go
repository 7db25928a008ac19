package exec

import (
	"fmt"
	"testing"
	"time"

	"bfcbo/internal/catalog"
	"bfcbo/internal/mem"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/storage"
)

// joinSidesFixture is one hash join taken apart: a probe table of
// probeRows foreign keys drawn uniformly from a build table of buildRows
// distinct keys (every probe key hits exactly one build row, the FK → PK
// shape of the TPC-H joins), and an executor wired by hand so that the
// build sink and the probe operator run alone, without the pipeline
// driver, the scheduler or the scans around them.
type joinSidesFixture struct {
	ex   *executor
	j    *plan.Join
	scan *plan.Scan // of the probe table, with a predicate every row passes
	// buildBatches and probeBatches are what the two sides' scans would
	// hand downstream: morsel-sized batches of row ids.
	buildBatches, probeBatches []*RowSet
}

const (
	joinSidesProbeRel  = 0
	joinSidesBuildRel  = 1
	joinSidesProbeRows = 1 << 18
)

func newJoinSidesFixture(tb testing.TB, buildRows int) *joinSidesFixture {
	tb.Helper()
	// xorshift: deterministic, and off the measured path.
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Build keys are a permutation of 0..n-1, so row order is not key order.
	pk := make([]int64, buildRows)
	for i := range pk {
		pk[i] = int64(i)
	}
	for i := len(pk) - 1; i > 0; i-- {
		k := int(next() % uint64(i+1))
		pk[i], pk[k] = pk[k], pk[i]
	}
	fk := make([]int64, joinSidesProbeRows)
	for i := range fk {
		fk[i] = int64(next() % uint64(buildRows))
	}
	mk := func(name, col string, vals []int64) *storage.Table {
		t, err := storage.NewTable(name, []storage.Column{{Name: col, Kind: catalog.Int64, Ints: vals}})
		if err != nil {
			tb.Fatal(err)
		}
		return t
	}
	tables := []*storage.Table{mk("probe_side", "fk", fk), mk("build_side", "pk", pk)}
	f := &joinSidesFixture{
		ex: &executor{
			dop: 1, morsel: DefaultMorselSize, tables: tables,
			blooms: newBloomSet(tables, nil),
			builds: make(map[*plan.Join]*hashTable),
			memq:   mem.NewBroker(0).NewQuery(),
		},
		scan: &plan.Scan{Rel: joinSidesProbeRel, Alias: "p", Table: "probe_side",
			Pred: query.CmpInt{Col: "fk", Op: query.GE, Val: 0}},
	}
	f.j = &plan.Join{
		JoinType: query.Inner,
		Outer:    f.scan,
		Inner:    &plan.Scan{Rel: joinSidesBuildRel, Alias: "b", Table: "build_side"},
		Conds:    []plan.Cond{{OuterRel: joinSidesProbeRel, OuterCol: "fk", InnerRel: joinSidesBuildRel, InnerCol: "pk"}},
	}
	f.buildBatches = rowIDBatches(joinSidesBuildRel, buildRows, f.ex.morsel)
	f.probeBatches = rowIDBatches(joinSidesProbeRel, joinSidesProbeRows, f.ex.morsel)
	return f
}

// rowIDBatches cuts row ids 0..n-1 of relation rel into morsel-sized
// batches, as an unfiltered scan emits them.
func rowIDBatches(rel, n, morsel int) []*RowSet {
	var out []*RowSet
	for lo := 0; lo < n; lo += morsel {
		rs := NewRowSetCap(query.NewRelSet(rel), morsel)
		for id := lo; id < min(lo+morsel, n); id++ {
			rs.cols[0] = append(rs.cols[0], int32(id))
		}
		out = append(out, rs)
	}
	return out
}

// build runs the real hash-build sink over the build batches — consume,
// then finish: concat, key gather, hash, directory — and returns the
// published table.
func (f *joinSidesFixture) build() (*hashTable, error) {
	snk := &hashBuildSink{
		rels: query.NewRelSet(joinSidesBuildRel), parts: make([]*RowSet, 1),
		ex: f.ex, j: f.j, estRows: float64(f.ex.tables[joinSidesBuildRel].NumRows()),
		res: f.ex.memq.Reserve(), rec: &spillCounters{},
	}
	for _, b := range f.buildBatches {
		snk.consume(0, b)
	}
	if err := snk.finish(); err != nil {
		return nil, err
	}
	return f.ex.builds[f.j], nil
}

// buildBloom builds, through bloomSet.build, a filter over the keys of the
// build table's first keep rows and has scan apply it to the probe
// table's: every row is tested, and with keep the whole build table every
// row passes. estNDV is the spec's planned key count, which sizes the
// filter (0: the keep rows).
func (f *joinSidesFixture) buildBloom(scan *plan.Scan, estNDV float64, keep int) error {
	spec := plan.BloomSpec{ID: 1, ApplyRel: joinSidesProbeRel, ApplyCol: "fk", BuildRel: joinSidesBuildRel, BuildCol: "pk", EstBuildNDV: estNDV}
	f.ex.blooms = newBloomSet(f.ex.tables, []plan.BloomSpec{spec})
	j := *f.j
	j.BuildBlooms = []int{spec.ID}
	inner := NewRowSet(query.NewRelSet(joinSidesBuildRel))
	for _, b := range f.buildBatches {
		inner.appendBatch(b)
	}
	inner.cols[0] = inner.cols[0][:keep]
	scan.ApplyBlooms = []int{spec.ID}
	return f.ex.blooms.build(&j, inner.Len(), feedVector(inner, nil))
}

// batchSource replays prepared batches: the probe operator's child.
type batchSource struct {
	batches []*RowSet
	next    int
}

func (s *batchSource) Open() error  { s.next = 0; return nil }
func (s *batchSource) Close() error { return nil }
func (s *batchSource) NextBatch() (*RowSet, error) {
	if s.next == len(s.batches) {
		return nil, nil
	}
	s.next++
	return s.batches[s.next-1], nil
}

// drain pulls op dry and returns the rows it produced.
func drain(op PhysicalOperator) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	rows := 0
	for {
		b, err := op.NextBatch()
		if err != nil {
			return 0, err
		}
		if b == nil {
			return rows, op.Close()
		}
		rows += b.Len()
	}
}

// BenchmarkJoinSides is where cost.Engine's constants come from. It prices,
// on this executor's own operators, the per-row quantities the cost model
// charges for:
//
//   - scan/plain: a row through a scan (CPUTupleCost, the unit);
//     scan/pred and scan/bloom add one predicate kernel and one Bloom
//     filter test per row, so their excess over scan/plain is
//     CPUOperatorCost and BloomApplyCost; scan/bloom/16KiB … 4MiB sweep
//     the filter's size, at 16 bits per key as the executor builds it,
//     from L1 out past L2 (the engine profile's Heuristic 5 cap). These
//     pass every row; scan/bloom/pass5pct tests the same rows against a
//     filter of scan/bloom's size that holds 5 % of the probe keys, so
//     about 5.5 % pass (the rest are false positives): near the 7 % the
//     benchmark's TPC-H workloads pass (bloom.drop_ratio 0.93);
//
//   - build: a row into a hash join's build side (HashBuildCost) — the
//     real sink's consume and finish: part append, concat, key gather,
//     hash, directory;
//
//   - probe: a key through the probe operator (HashProbeCost) — gather,
//     directory probe and emit, one match per key, keys in random order;
//
//   - mirror: the same join with its preserve side building (a right semi
//     and a right outer join): a key through the probe-and-mark kernel,
//     and a build row through the sweep that follows — what the planner
//     prices as a probe key and as one more scanned row;
//
// the join sides at a cache-resident (16 Ki rows) and a memory-resident
// (1 Mi rows) build side. One worker, so wall time is CPU time. The
// figures are copied into internal/cost by hand (see cost.Engine): nothing
// calibrates at run time, so a plan stays a pure function of its inputs.
// CI runs this for its allocation ceiling only.
func BenchmarkJoinSides(b *testing.B) {
	type scanCase struct {
		name        string
		pred, bloom bool
		// bloomBytes, when set, is the filter's size: its build side and
		// planned key count are bloomBytes/2 keys, 16 bits each.
		bloomBytes int
		// pass5pct: the filter holds 5 % of the probe key domain.
		pass5pct bool
	}
	scans := []scanCase{{name: "plain"}, {name: "pred", pred: true}, {name: "bloom", bloom: true},
		{name: "bloom/pass5pct", bloom: true, pass5pct: true}}
	for size := 16 << 10; size <= 4<<20; size <<= 1 {
		name := fmt.Sprintf("bloom/%dKiB", size>>10)
		if size >= 1<<20 {
			name = fmt.Sprintf("bloom/%dMiB", size>>20)
		}
		scans = append(scans, scanCase{name: name, bloom: true, bloomBytes: size})
	}
	for _, sc := range scans {
		b.Run("scan/"+sc.name, func(b *testing.B) {
			buildRows, keep, estNDV := 1<<14, 1<<14, 0.0
			if sc.bloomBytes > 0 {
				buildRows, keep = sc.bloomBytes/2, sc.bloomBytes/2
				estNDV = float64(buildRows)
			}
			if sc.pass5pct {
				buildRows = 20 * keep
			}
			f := newJoinSidesFixture(b, buildRows)
			scan := *f.scan
			if !sc.pred {
				scan.Pred = nil
			}
			if sc.bloom {
				if err := f.buildBloom(&scan, estNDV, keep); err != nil {
					b.Fatal(err)
				}
				if bits := f.ex.blooms.built[1].NBits(); sc.bloomBytes > 0 && bits != 8*uint64(sc.bloomBytes) {
					b.Fatalf("filter has %d bits, want %d", bits, 8*sc.bloomBytes)
				}
			}
			rows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := f.ex.newScanSource(&scan, &opStats{})
				if err != nil {
					b.Fatal(err)
				}
				if rows, err = drain(&scanOp{src: src}); err != nil || (!sc.pass5pct && rows != joinSidesProbeRows) {
					b.Fatalf("scan: %d rows, %v", rows, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/joinSidesProbeRows, "ns/row")
			if sc.pass5pct {
				b.ReportMetric(float64(rows)/joinSidesProbeRows, "pass")
			}
		})
	}
	for _, size := range []int{1 << 14, 1 << 20} {
		name := fmt.Sprintf("%dKi", size>>10)
		b.Run("build/"+name, func(b *testing.B) {
			f := newJoinSidesFixture(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/row")
		})
		b.Run("probe/"+name, func(b *testing.B) {
			f := newJoinSidesFixture(b, size)
			ht, err := f.build()
			if err != nil {
				b.Fatal(err)
			}
			sh, err := f.ex.newProbeShared(f.j, ht, query.NewRelSet(joinSidesProbeRel), &opStats{}, 1)
			if err != nil {
				b.Fatal(err)
			}
			op := &probeOp{sh: sh, child: &batchSource{batches: f.probeBatches}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rows, err := drain(op); err != nil || rows != joinSidesProbeRows {
					b.Fatalf("probe: %d rows, %v", rows, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/joinSidesProbeRows, "ns/key")
		})
	}
	for _, jt := range []query.JoinType{query.Semi, query.Left} {
		b.Run("mirror/"+jt.String(), func(b *testing.B) {
			const size = 1 << 14
			f := newJoinSidesFixture(b, size)
			ht, err := f.build()
			if err != nil {
				b.Fatal(err)
			}
			j := *f.j
			j.JoinType, j.BuildPreserved = jt, true
			sh, err := f.ex.newProbeShared(&j, ht, query.NewRelSet(joinSidesProbeRel), &opStats{}, 1)
			if err != nil {
				b.Fatal(err)
			}
			// Every build key is drawn by some probe row, so a semi join
			// sweeps out every build row and a left join none.
			wantPairs, wantSwept := 0, size
			if jt == query.Left {
				wantPairs, wantSwept = joinSidesProbeRows, 0
			}
			marks, scr := newBuildMarks(size), &probeScratch{}
			var probing, sweeping time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(marks)
				pairs, swept := 0, 0
				start := time.Now()
				for _, in := range f.probeBatches {
					pairs += sh.probeBatch(ht, in, scr, marks).Len()
				}
				probing += time.Since(start)
				start = time.Now()
				for at := 0; at < size; {
					var out *RowSet
					out, at = sh.sweepBatch(ht, marks, at, scr)
					swept += out.Len()
				}
				sweeping += time.Since(start)
				if pairs != wantPairs || swept != wantSwept {
					b.Fatalf("mirrored %s join: %d pairs, %d swept rows; want %d and %d", jt, pairs, swept, wantPairs, wantSwept)
				}
			}
			b.ReportMetric(float64(probing.Nanoseconds())/float64(b.N)/joinSidesProbeRows, "ns/key")
			b.ReportMetric(float64(sweeping.Nanoseconds())/float64(b.N)/size, "ns/swept-row")
		})
	}
}
