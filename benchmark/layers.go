package main

// layer is one per-layer metric and its unit. LAYERS.md maps each to
// the end-to-end metric it should move; TestBenchmarkJSONMatchesCode
// keeps BENCHMARK.json's per_layer list equal to this table.
type layer struct{ name, unit string }

var layerTable = []layer{
	{"data.build_ms", "ms"},
	{"data.freeze_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.decide_ms", "ms"},
	{"core.fit_em_ms", "ms"},
	{"core.fit_erm_ms", "ms"},
	{"core.infer_ms", "ms"},
	{"core.em_iterations", "count"},
	{"stream.batch_us_p50", "us"},
	{"stream.refresh_batch_us_p50", "us"},
	{"stream.epochs", "count"},
	{"stream.ns_per_claim", "ns"},
	{"stream.learner_batch_us_p50", "us"},
	{"stream.learner_refresh_batch_us_p50", "us"},
	{"stream.learner_accuracy", "fraction"},
	{"stream.featureless_accuracy", "fraction"},
	{"stream.restore_ms", "ms"},
	{"stream.checkpoint_mb", "MB"},
	{"query.parse_us", "us"},
	{"query.exec_ms.lookup", "ms"},
	{"query.exec_ms.topk", "ms"},
	{"query.exec_ms.group", "ms"},
	{"query.exec_ms.export", "ms"},
	{"query.write_ms.lookup", "ms"},
	{"query.write_ms.topk", "ms"},
	{"query.write_ms.group", "ms"},
	{"query.write_ms.export", "ms"},
	{"query.rows.lookup", "count"},
	{"query.rows.topk", "count"},
	{"query.rows.group", "count"},
	{"query.rows.export", "count"},
	{"query.bytes.lookup", "bytes"},
	{"query.bytes.topk", "bytes"},
	{"query.bytes.group", "bytes"},
	{"query.bytes.export", "bytes"},
	{"http.observe_us_per_req", "us"},
	{"http.observe_share", "fraction"},
	{"http.observe_cpu_us_per_req", "us"},
	{"http.query_ms.lookup", "ms"},
	{"http.query_ms.topk", "ms"},
	{"http.query_ms.group", "ms"},
	{"http.query_ms.export", "ms"},
	{"cluster.ingest_ms_p50", "ms"},
	{"cluster.barrier_ingest_ms_p50", "ms"},
	{"cluster.barriers", "count"},
	{"cluster.retries", "count"},
	{"http.router_us_per_req", "us"},
	{"trace.replay_ms", "ms"},
	{"trace.overhead_share", "fraction"},
	{"host.steal_share", "fraction"},
	{"load.generator_gomaxprocs", "count"},
	{"load.connections", "count"},
	{"load.server_shards", "count"},
	{"load.server_workers", "count"},
	{"load.nproc", "count"},
}

// perLayerMetrics lists the traced run's result-line names.
func perLayerMetrics() []string {
	out := make([]string, len(layerTable))
	for i, l := range layerTable {
		out[i] = l.name
	}
	return out
}

// queryClasses are the query-mix request classes with per-class
// latency metrics.
var queryClasses = []string{"lookup", "topk", "group", "export"}

// layerNames expands prefix.<class> for every query class.
func layerNames(prefixes ...string) []string {
	var out []string
	for _, p := range prefixes {
		for _, c := range queryClasses {
			out = append(out, p+"."+c)
		}
	}
	return out
}
