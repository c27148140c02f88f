package main

import "fmt"

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.plan_cache_hit_frac", "frac"},
	{"wire.encode_ms", "ms"},
	{"wire.response_kb", "KiB"},
	{"sql.parse_us", "us"},
	{"sql.prepare_us", "us"},
	{"sql.exec_ms", "ms"},
	{"relational.rows_out_per_result_row", "rows/row"},
	{"dist.bytes_shuffled_per_query", "B"},
	{"dist.flows_per_query", "count"},
	{"dist.model_net_us_per_query", "us"},
	{"netsim.barrier_wait_ms", "ms"},
	{"netsim.rounds_per_query", "count"},
	{"netsim.peak_flows_per_round", "count"},
	{"stream.append_ms", "ms"},
	{"stream.engine_freshness_p50_ms", "ms"},
	{"stream.windows", "count"},
	{"stream.late", "count"},
	{"stream.dropped", "count"},
	{"stream.ingest_model_net_ms", "ms"},
	{"stream.prime_alloc_mb", "MB"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p95_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p95_ms", "ms"},
	{"runtime.alloc_mb_per_query", "MB"},
	{"runtime.gc_cycles_per_query", "count"},
	{"relational.cpu_ms_per_query", "ms"},
	{"kernels.cpu_ms_per_query", "ms"},
	{"sql.cpu_ms_per_query", "ms"},
	{"dist.cpu_ms_per_query", "ms"},
	{"netsim.cpu_ms_per_query", "ms"},
	{"stream.cpu_ms_per_query", "ms"},
	{"serve.cpu_ms_per_query", "ms"},
	{"wire.cpu_ms_per_query", "ms"},
	{"gc.cpu_ms_per_query", "ms"},
	{"httpjson.cpu_ms_per_query", "ms"},
	{"bench.cpu_ms_per_query", "ms"},
	{"runtime.cpu_ms_per_query", "ms"},
	{"other.cpu_ms_per_query", "ms"},
	{"netsim.cpu_share", "frac"},
	{"relational_kernels.cpu_share", "frac"},
	{"bench.gen_lag_p95_ms", "ms"},
	{"bench.query_samples", "count"},
	{"bench.traced_qps_ratio", "frac"},
	{"error_frac", "frac"},
}

// endToEndMetrics is every metric an untraced run reports.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// complete checks that m holds exactly the metrics of want, filling the
// per-layer ones a workload does not exercise with 0.
func complete(m metrics, want []struct{ name, unit string }, fillZero bool) error {
	known := map[string]bool{}
	for _, w := range want {
		known[w.name] = true
		got, ok := m[w.name]
		switch {
		case !ok && fillZero:
			m.set(w.name, 0, w.unit)
		case !ok:
			return fmt.Errorf("metric %s missing", w.name)
		case got.Unit != w.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", w.name, got.Unit, w.unit)
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
