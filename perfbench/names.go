package main

// The workloads, each with the one-line reason it was chosen.
var workloads = []struct{ name, why string }{
	{"fit-batch", "truthfind-shaped passes through the facade: the Gibbs sampler does most of the work, so sampler changes show and serving changes should not"},
	{"serve-read", "open-loop zipfian reads with no writes and so no refits: handler, query engine and storage scans do the work"},
	{"serve-ingest", "open-loop zipfian claim batches on the dirty refit timer: WAL, store, dirty sweeps, publish and checkpoints do the work"},
}

// named is a metric name with its unit.
type named struct{ name, unit string }

// endToEnd lists the end-to-end metrics, in report order.
var endToEnd = []named{
	{"setup_s", "s"}, {"fit_s", "s"}, {"fit_accuracy", "ratio"},
	{"read_max_rps", "1/s"}, {"freshness_p50_ms", "ms"}, {"freshness_p90_ms", "ms"},
	{"recovery_s", "s"}, {"live_heap_mb", "MB"}, {"ok_ratio", "ratio"},
}

// serveOps are the operations whose handler time the traced run reports.
var serveOps = []string{kTruthEntity, kRecords, kTruthPage, kTruthTopk, kClaimsEntity, kClaimsPost, kProbeRead}

// perLayer lists the traced run's per-layer metrics, in report order.
var perLayer = func() []named {
	m := []named{
		// The open-loop request latencies: every run measures and prints
		// them, but their spread across seeds on a 2-vCPU box is wider
		// than any bound the benchmark may set, so they are declared here,
		// without a bound.
		{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"}, {"loadgen.queue_wait_p99_ms", "ms"},
		{"net.overhead_p50_us", "us"},
		{"dataset.read_s", "s"}, {"dataset.write_s", "s"},
		{"model.build_s", "s"}, {"model.build_alloc_mb", "MB"},
		{"core.fit_s", "s"}, {"core.claim_samples_per_s", "1/s"}, {"core.fit_alloc_mb", "MB"},
	}
	for _, op := range serveOps {
		m = append(m, named{"serve.handler_p50_us." + op, "us"}, named{"serve.handler_p99_us." + op, "us"})
	}
	for _, op := range serveOps {
		m = append(m, named{"serve.resp_bytes." + op, "bytes"})
	}
	m = append(m,
		named{"serve.refits", "count"}, named{"serve.full_refits", "count"}, named{"serve.dirty_refits", "count"},
		named{"serve.refit_busy_frac", "ratio"},
		named{"serve.refit_phase_ms.drain", "ms"}, named{"serve.refit_phase_ms.fit", "ms"}, named{"serve.refit_phase_ms.publish", "ms"},
		named{"serve.dirty_fraction", "ratio"}, named{"serve.decision_flips_per_refit", "count"}, named{"serve.pending_p99", "count"},
		named{"query.truth_us.entity", "us"}, named{"query.truth_us.page", "us"}, named{"query.truth_us.topk", "us"},
		named{"query.records_us", "us"},
		named{"query.rows_per_op.entity", "count"}, named{"query.rows_per_op.page", "count"},
		named{"query.rows_per_op.topk", "count"}, named{"query.rows_per_op.records", "count"},
		named{"store.segments_skipped_ratio", "ratio"}, named{"store.resident_rows", "count"},
		named{"wal.append_p50_us", "us"}, named{"wal.append_p99_us", "us"}, named{"wal.fsync_p99_us", "us"},
		named{"wal.fsyncs_per_batch", "ratio"}, named{"wal.checkpoint_ms", "ms"},
		named{"wal.checkpoint_busy_frac", "ratio"}, named{"wal.disk_bytes_per_claim", "bytes"},
	)
	return append(m,
		named{"obs.trace_overhead_pct", "%"},
		named{"breakdown.client_us", "us"}, named{"breakdown.queue_wait_us", "us"}, named{"breakdown.net_us", "us"},
		named{"breakdown.handler_us", "us"}, named{"breakdown.query_us", "us"},
		named{"breakdown.handler_self_us", "us"}, named{"breakdown.unexplained_pct", "%"},
	)
}()

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, list := range [][]named{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
