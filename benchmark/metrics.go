package main

// metricDef is one row of BENCHMARK.json: the benchmark reports exactly
// these names, and the smoke test holds the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the engine sees, measured with the
// benchmark's tracing off. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},       // median of the repeated set-ups
	{"op_ms_p50", "ms", lower},    // per query / statement / Optimize call
	{"op_ms_p90", "ms", lower},    // same population
	{"pass_ms", "ms", lower},      // median wall of one pass over the op list
	{"ops_per_s", "1/s", higher},  // correct operations per second of measured wall
	{"peak_rss_mb", "MiB", lower}, // peak resident set while the workload runs
}

// perLayer are the per-module metrics of the traced run, named
// <module>.<metric>. Times are per pass (median over traced passes) unless
// the name says per operation or per key; counts are per pass and repeat
// exactly for one seed. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"sqlparser.parse_us_p50", "us", lower},
	{"sqlparser.statements", "count", higher},

	{"optimizer.plan_us_p50.nobf", "us", lower},
	{"optimizer.plan_us_p50.bfpost", "us", lower},
	{"optimizer.plan_us_p50.bfcbo", "us", lower},
	{"optimizer.plan_us_p50.bfcbo_h7", "us", lower},
	{"optimizer.pass_ms_bfpost", "ms", lower},
	{"optimizer.plans_kept", "count", lower},
	{"optimizer.candidates", "count", higher},
	{"optimizer.phase1_pairs", "count", lower},
	{"optimizer.blooms_planned", "count", higher},
	{"optimizer.join_order_digest", "hash", lower},
	{"optimizer.plan_cost_rel", "ratio", lower},
	{"optimizer.bfcbo_over_bfpost_exec_ratio", "ratio", lower},
	{"optimizer.bfcbo_over_bfpost_plan_ratio", "ratio", lower},
	{"optimizer.est_mae.bfpost", "rows", lower},
	{"optimizer.est_mae.bfcbo", "rows", lower},

	{"plan.fingerprint_us_p50", "us", lower},
	{"plan.decompose_us_p50", "us", lower},
	{"plan.pipelines", "count", lower},

	{"sched.queue_wait_ms", "ms", lower},
	{"sched.slot_wait_ms", "ms", lower},
	{"sched.slot_busy_ms", "ms", lower},
	{"sched.handoffs", "count", lower},
	{"sched.slot_utilisation", "ratio", higher},

	{"exec.run_ms", "ms", lower},
	{"exec.self_ms", "ms", lower},
	{"exec.pipeline_wall_ms", "ms", lower},
	{"exec.finish_wall_ms", "ms", lower},
	{"exec.phase_ms.merge", "ms", lower},
	{"exec.phase_ms.sort", "ms", lower},
	{"exec.phase_ms.build", "ms", lower},
	{"exec.phase_ms.bloom", "ms", lower},
	{"exec.phase_ms.fold", "ms", lower},
	{"exec.op_ms.scan", "ms", lower},
	{"exec.op_ms.gather", "ms", lower},
	{"exec.op_ms.probe", "ms", lower},
	{"exec.op_ms.emit", "ms", lower},
	{"exec.rows_scanned", "count", lower},
	{"exec.rows_out", "count", higher},
	{"exec.zone_skipped_morsels", "count", higher},
	{"exec.hash_reused_keys", "count", higher},

	{"bloom.filters_run", "count", higher},
	{"bloom.rows_tested", "count", lower},
	{"bloom.rows_passed", "count", lower},
	{"bloom.drop_ratio", "ratio", higher},
	{"bloom.add_ns_per_key", "ns", lower},
	{"bloom.test_ns_per_key", "ns", lower},

	{"hashtab.build_ns_per_row.l2", "ns", lower},
	{"hashtab.build_ns_per_row.mem", "ns", lower},
	{"hashtab.probe_ns_per_key.l2", "ns", lower},
	{"hashtab.probe_ns_per_key.mem", "ns", lower},
	{"hashtab.agg_ns_per_row.l2", "ns", lower},
	{"hashtab.agg_ns_per_row.mem", "ns", lower},
	{"query.filter_ns_per_row", "ns", lower},

	{"mem.peak_bytes", "B", lower},
	{"mem.denials", "count", lower},
	{"mem.spill_triggers", "count", lower},
	{"spill.bytes_written", "B", lower},
	{"spill.bytes_read", "B", lower},
	{"spill.partitions", "count", lower},
	{"spill.depth", "count", lower},
	{"spill.write_mb_per_s", "MB/s", higher},
	{"spill.read_mb_per_s", "MB/s", higher},

	{"bfcbo.engine_self_us_p50", "us", lower},
	{"obs.recorder_overhead_ratio", "ratio", lower},

	{"datagen.generate_s", "s", lower},
	{"storage.lazy_cache_build_ms", "ms", lower},

	{"trace.share.sqlparser", "ratio", lower},
	{"trace.share.optimizer", "ratio", lower},
	{"trace.share.plan", "ratio", lower},
	{"trace.share.sched", "ratio", lower},
	{"trace.share.exec", "ratio", lower},
	{"trace.residual_share", "ratio", lower},
	{"trace.overhead_ratio", "ratio", lower},
}

// exactCounts are the per-layer counts that must read the same on every
// traced pass of one run; a difference fails the run outright. Spill and
// Bloom row counts are left out: under a memory budget which reservation is
// denied, and under DOP > 1 which partial filters merge, depend on timing.
var exactCounts = []string{
	"sqlparser.statements",
	"optimizer.plans_kept", "optimizer.candidates", "optimizer.phase1_pairs",
	"optimizer.blooms_planned", "optimizer.join_order_digest",
	"plan.pipelines", "exec.rows_out", "bloom.filters_run",
}
