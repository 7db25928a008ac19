package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"bfcbo"
	"bfcbo/internal/plan"
)

// passAgg sums what the staged operations of one pass reported, layer by
// layer. Everything in it is read from values the layers' public functions
// already return: optimizer.Result, exec.Result and its Pipelines, OpStats,
// Scans, BloomStats and Sched.
type passAgg struct {
	mu     sync.Mutex
	sums   map[string]float64 // per-layer metric name -> pass total
	orders []string           // join-order signature per op index
	layers [][]float64        // [op index] -> summed layer-call walls, ms
	perOp  map[string][]float64
	maeSum float64
	maeN   int
}

func newPassAgg(ops int) *passAgg {
	return &passAgg{sums: map[string]float64{}, orders: make([]string, ops), layers: make([][]float64, ops), perOp: map[string][]float64{}}
}

func (a *passAgg) add(oi int, sql bool, s *stagedOp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.layers[oi] = append(a.layers[oi], ms(s.layers()))
	if sql {
		a.perOp["parse_us"] = append(a.perOp["parse_us"], us(s.parse))
		a.sums["sqlparser.statements"]++
	}
	a.perOp["plan_us"] = append(a.perOp["plan_us"], us(s.optimize))
	a.perOp["fingerprint_us"] = append(a.perOp["fingerprint_us"], us(s.fingerprint))
	a.perOp["decompose_us"] = append(a.perOp["decompose_us"], us(s.decomp))
	a.sums["plan.pipelines"] += float64(s.pipelines)
	a.sums["exec.run_ms"] += ms(s.run)

	p := s.plan
	a.sums["optimizer.plans_kept"] += float64(p.PlansKept)
	a.sums["optimizer.candidates"] += float64(p.Candidates)
	a.sums["optimizer.phase1_pairs"] += float64(p.Phase1Pairs)
	a.sums["optimizer.blooms_planned"] += float64(p.Plan.CountBlooms())
	a.orders[oi] = p.Plan.JoinOrderSignature()

	r := s.res
	if r == nil {
		return
	}
	a.sums["exec.rows_out"] += float64(r.Rows)
	for _, pl := range r.Pipelines {
		a.sums["exec.pipeline_wall_ms"] += ms(pl.Wall)
		a.sums["exec.finish_wall_ms"] += ms(pl.FinishWall)
		a.sums["exec.phase_ms.merge"] += ms(pl.Phases.Merge)
		a.sums["exec.phase_ms.sort"] += ms(pl.Phases.Sort)
		a.sums["exec.phase_ms.build"] += ms(pl.Phases.Build)
		a.sums["exec.phase_ms.bloom"] += ms(pl.Phases.Bloom)
		a.sums["exec.phase_ms.fold"] += ms(pl.Phases.Fold)
	}
	for _, o := range r.OpStats {
		if strings.HasPrefix(o.Label, "Scan") {
			a.sums["exec.op_ms.scan"] += ms(o.Wall)
			a.sums["exec.rows_scanned"] += float64(o.RowsIn)
		}
		a.sums["exec.op_ms.gather"] += ms(o.Gather)
		a.sums["exec.op_ms.probe"] += ms(o.Probe)
		a.sums["exec.op_ms.emit"] += ms(o.Emit)
		a.sums["exec.hash_reused_keys"] += float64(o.HashReusedKeys)
	}
	for _, sc := range r.Scans {
		a.sums["exec.zone_skipped_morsels"] += float64(sc.ZoneSkipped)
	}
	for _, b := range r.BloomStats {
		a.sums["bloom.filters_run"]++
		a.sums["bloom.rows_tested"] += float64(b.Tested)
		a.sums["bloom.rows_passed"] += float64(b.Passed)
	}
	a.sums["sched.queue_wait_ms"] += ms(r.Sched.QueueWait)
	a.sums["sched.slot_wait_ms"] += ms(r.Sched.SlotWait)
	a.sums["sched.slot_busy_ms"] += ms(r.Sched.SlotBusy)
	a.sums["sched.handoffs"] += float64(r.Sched.Handoffs)
	sp := r.TotalSpill()
	a.sums["spill.bytes_written"] += float64(sp.Bytes)
	a.sums["spill.bytes_read"] += float64(sp.BytesRead)
	a.sums["spill.partitions"] += float64(sp.Partitions)
	if d := float64(sp.Depth); d > a.sums["spill.depth"] {
		a.sums["spill.depth"] = d
	}
	a.maeSum += meanAbsError(p.Plan, r.ActualFor)
	a.maeN++
}

// meanAbsError is the paper's estimation-error measure: the mean absolute
// difference between estimated and observed rows over a plan's nodes.
func meanAbsError(p *plan.Plan, actual func(plan.Node) float64) float64 {
	var total float64
	var n int
	var walk func(plan.Node)
	walk = func(node plan.Node) {
		if a := actual(node); a >= 0 {
			d := node.EstRows() - a
			if d < 0 {
				d = -d
			}
			total += d
			n++
		}
		if j, ok := node.(*plan.Join); ok {
			walk(j.Outer)
			walk(j.Inner)
		}
	}
	walk(p.Root)
	return ratio(total, float64(n))
}

// stagedPass runs one pass of every client in staged form and returns the
// pass's samples, its layer sums and its wall-clock time.
func (w *engineWorkload) stagedPass(tr *tracer, mode bfcbo.Mode, cycle int) (*enginePass, *passAgg) {
	agg := newPassAgg(len(w.ops))
	p := w.runClients(cycle, func(c, oi int) (time.Duration, int64, error) {
		s, err := w.staged(tr, c, &w.ops[oi], mode)
		if s == nil {
			return 0, 0, err
		}
		if s.plan != nil {
			agg.add(oi, w.sql, s)
		}
		var spilled int64
		if s.res != nil {
			spilled = s.res.TotalSpill().Bytes
		}
		return s.wall, spilled, err
	})
	return p, agg
}

// tracedSpanPasses is how many staged passes keep their spans for the trace
// file; later passes still feed the per-layer medians.
const tracedSpanPasses = 2

// traced alternates, until the time is up, an untraced pass through the
// engine's front door with staged passes under BF-CBO and BF-Post. Per-layer
// times are medians over the staged passes; exact counts must agree between
// them.
func (w *engineWorkload) traced(d time.Duration, tr *tracer) (layerValues, *samples, error) {
	out := layerValues{}
	all := newSamples(len(w.ops), w.clients)
	var bare *bfcbo.Engine
	if w.sql {
		// A second engine over the same data with the flight recorder and
		// the workload history off prices the default engine's recording.
		var err error
		bare, err = bfcbo.Open(bfcbo.Config{ScaleFactor: w.cfg.sf(), Seed: w.cfg.dataSeed, DOP: w.cfg.clients, SlowQueryLog: -1, WorkloadHistory: -1})
		if err != nil {
			return nil, nil, err
		}
		w.enginePassOf(bare, bfcbo.BFCBO, 0) // warm its lazy caches
	}

	ser := series{}
	perOp := map[string][]float64{}
	var cnt counts
	engineByOp := make([][]float64, len(w.ops))
	layersByOp := make([][]float64, len(w.ops))
	var spilled int64
	broker := w.eng.MemoryBroker()
	deadline := time.Now().Add(d)
	for it := 0; it < 2 || time.Now().Before(deadline); it++ {
		frontDoor := func() {
			ep := w.enginePassOf(w.eng, bfcbo.BFCBO, it)
			all.merge(ep.samples)
			for oi, vs := range ep.byOp {
				engineByOp[oi] = append(engineByOp[oi], vs...)
			}
			ser.add("engine_pass_ms", median(ep.passMS))
		}
		// The front-door pass and the staged pass swap places every
		// iteration, so that neither always runs on the heap the other left.
		if it%2 == 0 {
			frontDoor()
		}

		spanTr := tr
		if it >= tracedSpanPasses {
			spanTr = nil
		}
		denials, triggers := broker.Denials(), broker.SpillTriggers()
		sp, agg := w.stagedPass(spanTr, bfcbo.BFCBO, it)
		all.merge(sp.samples)
		spilled += sp.spilled
		ser.add("staged_pass_ms", median(sp.passMS))
		for oi, vs := range agg.layers {
			layersByOp[oi] = append(layersByOp[oi], vs...)
		}
		for k, vs := range agg.perOp {
			perOp[k] = append(perOp[k], vs...)
		}
		pass := layerValues{}
		h := fnv.New32a()
		fmt.Fprint(h, agg.orders)
		pass["optimizer.join_order_digest"] = float64(h.Sum32())
		for k, v := range agg.sums {
			pass[k] = v
		}
		pass["mem.denials"] = float64(broker.Denials() - denials)
		pass["mem.spill_triggers"] = float64(broker.SpillTriggers() - triggers)
		pass["sched.slot_utilisation"] = ratio(pass["sched.slot_busy_ms"], ms(sp.elapsed)*float64(w.cfg.clients))
		pass["bloom.drop_ratio"] = ratio(pass["bloom.rows_tested"]-pass["bloom.rows_passed"], pass["bloom.rows_tested"])
		pass["spill.write_mb_per_s"] = ratio(pass["spill.bytes_written"]/1e6, pass["exec.run_ms"]/1e3)
		pass["spill.read_mb_per_s"] = ratio(pass["spill.bytes_read"]/1e6, pass["exec.run_ms"]/1e3)
		pass["optimizer.est_mae.bfcbo"] = ratio(agg.maeSum, float64(agg.maeN))
		if err := cnt.check(pass); err != nil {
			return nil, nil, err
		}
		for k, v := range pass {
			ser.add(k, v)
		}
		if it%2 == 1 {
			frontDoor()
		}

		pp, pagg := w.stagedPass(nil, bfcbo.BFPost, it)
		all.merge(pp.samples)
		ser.add("optimizer.pass_ms_bfpost", median(pp.passMS))
		ser.add("optimizer.est_mae.bfpost", ratio(pagg.maeSum, float64(pagg.maeN)))
		ser.add("bfpost_exec_ms", pagg.sums["exec.run_ms"])
		perOp["plan_us_bfpost"] = append(perOp["plan_us_bfpost"], pagg.perOp["plan_us"]...)

		if bare != nil {
			bp := w.enginePassOf(bare, bfcbo.BFCBO, it)
			all.merge(bp.samples)
			ser.add("bare_pass_ms", median(bp.passMS))
		}
	}
	if err := w.checkSpill(spilled); err != nil {
		return nil, nil, err
	}

	ser.medians(out)
	// Counts are reported as counted, not as medians of equal numbers.
	for _, name := range exactCounts {
		out[name] = cnt.first[name]
	}
	out["sqlparser.parse_us_p50"] = median(perOp["parse_us"])
	out["optimizer.plan_us_p50.bfcbo"] = median(perOp["plan_us"])
	out["optimizer.plan_us_p50.bfpost"] = median(perOp["plan_us_bfpost"])
	out["plan.fingerprint_us_p50"] = median(perOp["fingerprint_us"])
	out["plan.decompose_us_p50"] = median(perOp["decompose_us"])
	out["optimizer.bfcbo_over_bfpost_exec_ratio"] = ratio(out["exec.run_ms"], out["bfpost_exec_ms"])
	out["optimizer.bfcbo_over_bfpost_plan_ratio"] = ratio(out["optimizer.plan_us_p50.bfcbo"], out["optimizer.plan_us_p50.bfpost"])
	out["mem.peak_bytes"] = float64(broker.Peak())
	out["datagen.generate_s"] = w.openS
	if !w.sql {
		// The warm-up pass ran one client; sql_streams' steady passes run
		// side by side and do not compare with it.
		out["storage.lazy_cache_build_ms"] = w.firstPassMS - out["engine_pass_ms"]
	}
	out["trace.overhead_ratio"] = ratio(out["staged_pass_ms"], out["engine_pass_ms"])
	out["obs.recorder_overhead_ratio"] = ratio(out["engine_pass_ms"], out["bare_pass_ms"])

	// Engine self time: what Engine.RunContext adds around the layer calls
	// (EXPLAIN rendering, flight recorder, workload store, retry and audit
	// glue), per operation: median front-door wall minus median summed
	// layer-call wall, then the median over the pool.
	var self []float64
	for oi := range w.ops {
		self = append(self, 1e3*(median(engineByOp[oi])-median(layersByOp[oi])))
	}
	out["bfcbo.engine_self_us_p50"] = median(self)

	if !w.sql {
		ks, err := kernelMetrics(w.cfg.seed, w.eng)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range ks {
			out[k] = v
		}
	}
	traceShares(tr, out)
	return out, all, nil
}

// traceShares derives, from the recorded spans, the share of end-to-end
// wall each layer's calls took and the residual no leaf stage accounts for:
// the root spans' self time (the benchmark's glue between layer calls) plus
// exec.RunContext's time outside the admission queue and every pipeline.
// Both are per traced pass of spans kept.
func traceShares(tr *tracer, out layerValues) {
	self := tr.selfTimes()
	calls := tr.layerCalls()
	// Sibling pipelines overlap, so self times can sum past the wall; the
	// root spans' total is the end-to-end figure.
	wall := float64(calls[layerOp])
	out["trace.share.sqlparser"] = ratio(float64(calls[layerParse]), wall)
	out["trace.share.optimizer"] = ratio(float64(calls[layerOptimize]), wall)
	out["trace.share.plan"] = ratio(float64(calls[layerPlan]), wall)
	out["trace.share.sched"] = ratio(float64(calls[layerSched]), wall)
	out["trace.share.exec"] = ratio(float64(calls[layerExec]), wall)
	execSelf := self[layerExec] + self[layerExecRun]
	out["trace.residual_share"] = ratio(float64(self[layerOp]+execSelf), wall)
	out["exec.self_ms"] = ms(execSelf) / tracedSpanPasses
}
