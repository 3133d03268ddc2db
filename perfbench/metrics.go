package main

import "fmt"

// metricSpec names one reported metric with its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json lists the same names and
// units (TestMetricsMatchBenchmarkJSON holds them together), and every
// workload emits every metric of the list its mode reports.
type metricSpec struct {
	name string
	unit string
	// moves is the prediction recorded before any optimization: which
	// end-to-end metric on which workload a change to this layer metric
	// should move. Later changes cite these by metric name.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 (tracing off).
var endToEnd = []metricSpec{
	// Wall time from generated inputs to ready-to-answer: reduce + index
	// build, + quantizer training on batch-approx, + serve.New and Start on
	// serve-*. Excludes data generation, ground truth and verification.
	// Median of the run's setup repetitions.
	{name: "setup_s", unit: "s"},
	// Live heap after setup and a forced GC, minus the live heap measured
	// the same way just before setup with the inputs already allocated.
	{name: "mem_mb", unit: "MB"},
	// serve-*: one KNN request, from its scheduled send time to the last
	// byte of the response. batch-*: one 64-query batch call; the p50 is
	// that of the window's best pass (see bestPass). The tail is the p95:
	// the p99 of a 10 s window, set by ~20 requests, moved by 20-60%
	// between runs on the shared host, past any bound a change could be
	// held to.
	{name: "knn_p50_ms", unit: "ms"},
	{name: "knn_p95_ms", unit: "ms"},
	// KNN queries answered per second. serve-*: answered requests over the
	// window, which equals the offered rate unless the server falls
	// behind. batch-*: the window's best pass over the query slices (see
	// bestPass).
	{name: "knn_qps", unit: "1/s"},
	// Mean share of each query's true 10 nearest neighbours (brute force in
	// the original space) that the answer contains: the paper's §6
	// precision, as Model.EvaluatePrecision defines it.
	{name: "recall_at_10", unit: "ratio"},
	// One /insert or /delete from its scheduled send time on serve-rw; one
	// direct Index.Insert or Index.Delete on the other workloads, best of
	// the run's write bursts. See workloads.go for where each workload's
	// write samples come from. No write tail is reported: serve-rw sends 200
	// writes a window, and whether a write lands behind a read batch on
	// the fallback path sets its tail; the p95 and even the p90 moved by
	// 25% between seeds, past the largest bound the benchmark may set.
	{name: "write_p50_ms", unit: "ms"},
}

// perLayer are the per-layer metrics, reported with --trace 1. Each layer
// is measured from outside, by timing calls into its public functions and
// by reading counters the program already exposes.
var perLayer = []metricSpec{
	// core: mmdr.ReduceDataset (ellipkmeans, kmeans, stats, reduction).
	{name: "core.reduce_s", unit: "s", moves: "setup_s, all workloads"},
	{name: "core.avg_dim", unit: "dims", moves: "knn_qps against recall_at_10, batch-exact"},
	{name: "core.outlier_share", unit: "ratio", moves: "knn_qps against recall_at_10, batch-exact"},

	// idist: the extended iDistance index (btree, matrix kernels).
	{name: "idist.build_s", unit: "s", moves: "setup_s, batch-*"},
	{name: "idist.index_mb", unit: "MB", moves: "mem_mb, batch-exact"},
	{name: "idist.batch_call_ms", unit: "ms", moves: "knn_qps, batch-exact (self time of one 64-query BatchKNN)"},
	{name: "idist.page_reads_per_query", unit: "count", moves: "knn_qps, batch-exact (the paper's I/O cost)"},
	{name: "idist.distance_ops_per_query", unit: "count", moves: "knn_qps, batch-exact"},
	{name: "idist.rounds_per_query", unit: "count", moves: "knn_qps, batch-exact"},
	{name: "idist.candidates_per_query", unit: "count", moves: "knn_qps, batch-exact"},
	{name: "idist.leaves_per_query", unit: "count", moves: "knn_qps, batch-exact"},
	{name: "idist.candidate_yield", unit: "ratio", moves: "knn_qps, batch-exact (k over candidates: useful share of distance work)"},
	{name: "idist.node_accesses_per_query", unit: "count", moves: "knn_p50_ms, serve-rw (B+-tree walks of the fallback path)"},
	{name: "idist.key_compares_per_query", unit: "count", moves: "knn_p50_ms, serve-rw (B+-tree walks of the fallback path)"},
	{name: "idist.layout_us_per_query", unit: "us", moves: "knn_p50_ms, serve-read (tile-of-1 BatchKNN, layout valid)"},
	{name: "idist.fallback_us_per_query", unit: "us", moves: "knn_p50_ms, serve-rw (tile-of-1 BatchKNN after one Insert)"},
	{name: "idist.insert_us", unit: "us", moves: "write_p50_ms, serve-rw"},
	{name: "idist.delete_us", unit: "us", moves: "write_p50_ms, serve-rw"},

	// quant: product quantizer training, ADC scan and exact re-rank.
	{name: "quant.train_s", unit: "s", moves: "setup_s, batch-approx"},
	{name: "quant.codes_mb", unit: "MB", moves: "mem_mb, batch-approx"},
	{name: "quant.code_bytes_per_vector", unit: "bytes", moves: "mem_mb, batch-approx"},
	{name: "quant.batch_call_ms", unit: "ms", moves: "knn_qps, batch-approx (self time of one 64-query BatchKNNQuantized)"},
	{name: "quant.distance_ops_per_query", unit: "count", moves: "knn_qps, batch-approx (the exact re-rank work)"},

	// serve: admission, coalescing, replicas, HTTP.
	{name: "serve.new_s", unit: "s", moves: "setup_s, serve-* (includes the gob replica clones)"},
	{name: "serve.replicas_mb", unit: "MB", moves: "mem_mb, serve-*"},
	{name: "serve.http_ms", unit: "ms", moves: "knn_p50_ms, serve-read (p50 over loopback HTTP)"},
	{name: "serve.handler_ms", unit: "ms", moves: "knn_p50_ms, serve-read (p50 through Handler().ServeHTTP)"},
	{name: "serve.submit_ms", unit: "ms", moves: "knn_p50_ms, serve-read (p50 through Server.KNN)"},
	{name: "serve.kernel_ms", unit: "ms", moves: "knn_p50_ms, serve-read (p50 of a tile-of-1 BatchKNN)"},
	{name: "serve.transport_ms", unit: "ms", moves: "knn_p50_ms, serve-read (http minus handler)"},
	{name: "serve.codec_ms", unit: "ms", moves: "knn_p50_ms, serve-read (handler minus submit)"},
	{name: "serve.coalesce_ms", unit: "ms", moves: "knn_p50_ms, serve-read (submit minus kernel: admission, coalescing, linger)"},
	{name: "serve.tile_fill", unit: "ratio", moves: "knn_p50_ms, serve-read (batched queries per batch)"},
	{name: "serve.flush_timer_share", unit: "ratio", moves: "knn_p50_ms, serve-read (batches the linger timer flushed)"},
	{name: "serve.write_ms", unit: "ms", moves: "write_p50_ms, serve-rw (p50 of Server.Insert and Server.Delete)"},
	{name: "serve.rejected", unit: "count", moves: "knn_qps, serve-* (429 answers)"},

	// metrics: the runtime registry's own cost.
	{name: "metrics.overhead_share", unit: "ratio", moves: "knn_p50_ms, serve-* where the registry is attached; no change on batch-*"},

	// The benchmark harness itself.
	{name: "loadgen.late_p99_ms", unit: "ms", moves: "none: how late the generator sent requests against their schedule"},
	{name: "trace.overhead_share", unit: "ratio", moves: "none: traced window knn_p50_ms over the untraced window's, minus 1"},
}

// report collects metric values by name and renders the ones a mode
// reports, in spec order, failing on any the run did not measure.
type report map[string]float64

func (r report) metrics(specs []metricSpec) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := r[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}
