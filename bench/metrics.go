package main

import "fmt"

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (a test keeps the
// two in step) and every run reports each name of its trace mode.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one: on the two read workloads the mutate metrics come from the
// fixed-count recovery step every run ends with, on the write workloads
// from the timed phase.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"induce_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"mutate_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"write_rows_per_s", "1/s"},
	{"recover_s", "s"},
}

// perLayer is the traced run's vocabulary: one layer each, 0 where the
// workload leaves the layer idle.
var perLayer = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"core.prepare_self_us", "us"},
	{"semopt.analyze_us", "us"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"exec.run_us", "us"},
	{"exec.rows_out_per_op", "count"},
	{"exec.full_scans", "count"},
	{"exec.index_scans", "count"},
	{"exec.index_fallbacks", "count"},
	{"quel.index_rebuild_us", "us"},
	{"infer.derive_us", "us"},
	{"infer.rules_served", "count"},
	{"answer.render_us", "us"},
	{"server.handle_hit_us", "us"},
	{"server.resp_bytes_per_op", "bytes"},
	{"server.queue_full", "count"},
	{"server.queue_timeout", "count"},
	{"server.panics", "count"},
	{"http.transport_us", "us"},
	{"query.apply_mutation_us", "us"},
	{"maintain.apply_us", "us"},
	{"maintain.stale_rules", "count"},
	{"dict.rebuild_us", "us"},
	{"core.apply_self_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.records", "count"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.checkpoints", "count"},
	{"storage.bytes_on_disk_per_user_byte", "ratio"},
	{"storage.load_ms", "ms"},
	{"wal.scan_ms", "ms"},
	{"core.replay_us_per_record", "us"},
	{"replica.poll_rtt_us", "us"},
	{"replica.poll_requests", "count"},
	{"replica.ship_lag_p50_ms", "ms"},
	{"replica.ship_lag_p95_ms", "ms"},
	{"replica.bootstrap_s", "s"},
	{"core.bootstrap_archive_ms", "ms"},
	{"replica.chunk_mb_per_s", "MB/s"},
	{"replica.chunk_bytes", "bytes"},
	{"core.install_bootstrap_ms", "ms"},
	{"induct.induce_all_ms", "ms"},
	{"runtime.gomaxprocs", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_heap_mb", "MB"},
	{"client.query_p99_ms", "ms"},
	{"client.failed", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// collect builds the reported map from measured values, insisting that
// the two agree exactly: a name measured but not declared, or declared
// but not measured, is a bug in the benchmark, not a result.
func collect(defs []metricDef, got map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}
