package exec

import (
	"sync"
	"testing"

	"bfcbo/internal/mem"
	"bfcbo/internal/plan"
	"bfcbo/internal/query"
	"bfcbo/internal/spill"
)

// consumeAll feeds batches to snk from dop workers, worker w taking every
// dop-th batch from the w-th, and waits for them.
func consumeAll(snk sink, batches []*RowSet, dop int) {
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batches); i += dop {
				snk.consume(w, batches[i])
			}
		}(w)
	}
	wg.Wait()
}

// readPartition reads one partition file of side back. Every read block
// must keep the reader's bound and every row must hash, at level, to
// partition p of n; it returns the row ids of the side's key relation in
// file order.
func readPartition(t *testing.T, side *graceSide, w *spill.Writer, p, n, level int) []int32 {
	t.Helper()
	var ids []int32
	err := eachBlock(w, &spillCounters{}, side.kind, func(cols [][]int32) error {
		if len(cols[0]) > spill.ReadRows {
			t.Errorf("partition %d at level %d: a block of %d rows, bound %d", p, level, len(cols[0]), spill.ReadRows)
		}
		for _, id := range cols[side.keyPos] {
			if got := int(spillHash(side.keyVals[id], level) % uint64(n)); got != p {
				t.Fatalf("row %d sits in partition %d of %d at level %d; its key routes to %d", id, p, n, level, got)
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// onceEach fails unless ids holds each of want exactly once.
func onceEach(t *testing.T, what string, ids, want []int32) {
	t.Helper()
	seen := map[int32]int{}
	for _, id := range ids {
		seen[id]++
	}
	for _, id := range want {
		if seen[id] != 1 {
			t.Fatalf("%s: row %d routed %d times", what, id, seen[id])
		}
	}
	if len(ids) != len(want) {
		t.Fatalf("%s: %d rows routed, want %d", what, len(ids), len(want))
	}
}

// TestGraceRoutesEveryRowOnce spills a hash join under a budget far below
// its build side, at DOP 1 and 4: the build sink's workers route their
// parts (when their grants are denied and in the grace finish), the route
// sink routes the probe side, and one repartition splits the first pair.
// Read back, a block of at most spill.ReadRows rows at a time, every
// partition file holds rows that hash to it at its level, and every input
// row sits in exactly one partition.
func TestGraceRoutesEveryRowOnce(t *testing.T) {
	const buildRows = 200_000
	for _, dop := range []int{1, 4} {
		f := newJoinSidesFixture(t, buildRows)
		ex := f.ex
		broker := mem.NewBroker(512 << 10)
		ex.dop, ex.memq, ex.budget = dop, broker.NewQuery(), broker.Budget()
		ex.spillParent, ex.queryTag, ex.stopCh = t.TempDir(), "routes", make(chan struct{})
		ex.graces = make(map[*plan.Join]*graceHashJoin)
		t.Cleanup(ex.cleanupSpill)

		buildRels := query.NewRelSet(joinSidesBuildRel)
		bs := &hashBuildSink{rels: buildRels, parts: make([]*RowSet, dop), ex: ex, j: f.j,
			estRows: buildRows, res: ex.memq.Reserve(), rec: &spillCounters{}}
		consumeAll(bs, f.buildBatches, dop)
		if err := bs.finish(); err != nil {
			t.Fatal(err)
		}
		g := ex.graces[f.j]
		if g == nil {
			t.Fatalf("dop %d: the build did not spill", dop)
		}
		n := len(g.build.parts)
		if buildRows <= n*spill.ReadRows {
			t.Fatalf("dop %d: %d build rows fit %d partitions' single read blocks", dop, buildRows, n)
		}
		probeRels := query.NewRelSet(joinSidesProbeRel)
		sh, err := ex.newProbeShared(f.j, nil, probeRels, &opStats{}, dop)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := g.newRouteSink(sh, probeRels, dop, &spillCounters{}, ex.memq.Reserve())
		if err != nil {
			t.Fatal(err)
		}
		consumeAll(rs, f.probeBatches, dop)
		if err := rs.finish(); err != nil {
			t.Fatal(err)
		}

		var first [2][]int32 // partition 0's rows, build and probe
		for s, side := range []*graceSide{&g.build, &g.probe} {
			var ids []int32
			for p, w := range side.parts {
				got := readPartition(t, side, w, p, n, 0)
				if p == 0 {
					first[s] = got
				}
				ids = append(ids, got...)
			}
			want := f.buildBatches
			if side == &g.probe {
				want = f.probeBatches
			}
			var all []int32
			for _, b := range want {
				all = append(all, b.cols[0]...)
			}
			onceEach(t, "level 0", ids, all)
		}

		d := &drainOp{sh: sh, g: g}
		if err := g.repartition(spillPair{build: g.build.parts[0], probe: g.probe.parts[0]}, d); err != nil {
			t.Fatal(err)
		}
		if len(d.stack) != graceSubParts {
			t.Fatalf("dop %d: repartition pushed %d pairs, want %d", dop, len(d.stack), graceSubParts)
		}
		var sub [2][]int32
		for q, pair := range d.stack {
			if pair.level != 1 {
				t.Fatalf("dop %d: sub-pair %d at level %d, want 1", dop, q, pair.level)
			}
			sub[0] = append(sub[0], readPartition(t, &g.build, pair.build, q, graceSubParts, 1)...)
			sub[1] = append(sub[1], readPartition(t, &g.probe, pair.probe, q, graceSubParts, 1)...)
		}
		onceEach(t, "repartitioned build", sub[0], first[0])
		onceEach(t, "repartitioned probe", sub[1], first[1])
	}
}

// BenchmarkGraceRoute routes a fixed three-column row set into 16
// partition files through one reused router, the way every spilled row
// reaches its partition. CI gates it at 0 allocs/op: once a router's
// scratch exists, routing allocates nothing. The files are replaced every
// 256 routes, off the timer, so a long run does not fill the disk.
func BenchmarkGraceRoute(b *testing.B) {
	const rows, nparts = 4096, 16
	keys := make([]int64, rows)
	cols := [][]int32{make([]int32, rows), make([]int32, rows), make([]int32, rows)}
	for i := range keys {
		keys[i] = int64(i) * 7919
		cols[0][i], cols[1][i], cols[2][i] = int32(i), int32(rows-1-i), int32(i/3)
	}
	ex := &executor{spillParent: b.TempDir(), queryTag: "route"}
	defer ex.cleanupSpill()
	side := graceSide{rels: query.NewRelSet(0, 1, 2), keyVals: keys}
	// fresh moves side onto new files and removes the old.
	fresh := func() {
		old := side.parts
		var err error
		if side, err = side.open(ex, "route", nparts, &spillCounters{}); err != nil {
			b.Fatal(err)
		}
		for _, w := range old {
			if err := w.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	}
	fresh()
	r := newRouters(&side, 1)[0]
	route := func() {
		if err := r.route(cols); err != nil {
			b.Fatal(err)
		}
	}
	route() // sizes the router's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		route()
	}
}
