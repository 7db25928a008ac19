package obs

import "time"

// Metrics is the engine's pre-registered metric set. One fold per query —
// the executor sums its per-worker locals at Close (the PR 6 pattern) and
// lands the totals here in a single pass at the end of RunContext, so no
// per-row or per-batch work ever touches these.
//
// Live state (slot occupancy, queue depth, broker reservation level) is
// exposed through gauge funcs registered by the engine against its
// scheduler and memory broker — read at scrape time, zero hot-path cost.
type Metrics struct {
	// Query lifecycle.
	Queries      *Counter   // queries finished (ok or error)
	QueryErrors  *Counter   // queries finished with an error
	QueryLatency *Histogram // end-to-end run latency, seconds
	QueueWait    *Histogram // admission-queue wait per query, seconds
	SlotWait     *Histogram // summed worker slot-wait per query, seconds
	PlanTime     *Histogram // optimizer latency per planned block, seconds

	// Scheduler occupancy, folded from sched.Stat at query end. Nanosecond
	// counters stay integers (allocation-free atomics); the exposition name
	// says the unit.
	SlotBusyNanos *Counter // time integral of held slots

	// Data flow.
	RowsOut *Counter // rows delivered to query results

	// Scan engine.
	MorselsScanned *Counter // morsels claimed by scan workers

	// Join probes.
	ProbeRows *Counter // join-probe input rows

	// Out-of-core activity.
	SpillBytes     *Counter // encoded bytes written to spill files
	SpillReadBytes *Counter // encoded bytes read back from spill files
	SpillParts     *Counter // spill files created

	// Robustness: recovery events. Injected faults are exported by the
	// engine as a counter func over the live injector.
	PanicsRecovered *Counter // worker/pipeline panics contained to a query error
}

// NewMetrics registers the engine metric set on reg (idempotent — a second
// engine in the same process shares the same series).
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		Queries:      reg.NewCounter("bfcbo_queries_total", "Queries finished (including errors)."),
		QueryErrors:  reg.NewCounter("bfcbo_query_errors_total", "Queries finished with an error."),
		QueryLatency: reg.NewHistogram("bfcbo_query_latency_seconds", "End-to-end query latency.", LatencyBuckets),
		QueueWait:    reg.NewHistogram("bfcbo_queue_wait_seconds", "Admission-queue wait per query.", LatencyBuckets),
		SlotWait:     reg.NewHistogram("bfcbo_slot_wait_seconds", "Summed worker slot wait per query.", LatencyBuckets),
		PlanTime:     reg.NewHistogram("bfcbo_plan_seconds", "Optimizer latency per planned block.", LatencyBuckets),

		SlotBusyNanos: reg.NewCounter("bfcbo_slot_busy_nanos_total", "Time integral of held worker slots, nanoseconds."),

		RowsOut: reg.NewCounter("bfcbo_rows_out_total", "Rows delivered to query results."),

		MorselsScanned: reg.NewCounter("bfcbo_morsels_scanned_total", "Morsels claimed by scan workers."),

		ProbeRows: reg.NewCounter("bfcbo_probe_rows_total", "Join-probe input rows."),

		SpillBytes:     reg.NewCounter("bfcbo_spill_bytes_total", "Encoded bytes written to spill files."),
		SpillReadBytes: reg.NewCounter("bfcbo_spill_read_bytes_total", "Encoded bytes read back from spill files."),
		SpillParts:     reg.NewCounter("bfcbo_spill_partitions_total", "Spill files created."),

		PanicsRecovered: reg.NewCounter("bfcbo_panics_recovered_total", "Worker panics contained to a typed per-query error."),
	}
}

// ObserveQuery folds one finished query's top-line numbers: latency plus
// the scheduler stats every query carries. The executor adds the
// scan/probe/spill totals itself from its stat structs.
func (m *Metrics) ObserveQuery(latency, queueWait, slotWait, slotBusy time.Duration, rows int, err bool) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	if err {
		m.QueryErrors.Inc()
	}
	m.QueryLatency.ObserveDuration(latency)
	m.QueueWait.ObserveDuration(queueWait)
	m.SlotWait.ObserveDuration(slotWait)
	m.SlotBusyNanos.Add(slotBusy.Nanoseconds())
	m.RowsOut.Add(int64(rows))
}
