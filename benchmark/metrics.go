package main

// metricDef names one metric with its unit and the direction that is
// better. bound is the share of the baseline's median by which an
// end-to-end metric may get worse before a change counts as a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, on every workload, from
// the untraced run. BENCHMARK.json repeats this table. Every bound is the
// widest BENCHMARK.json may hold: the reference box is a share of a busy
// host whose speed drifts by up to 30 % over tens of minutes
// (results/README.md), and CPU per record and both latencies follow it, so
// a tighter bound would call two baselines of the same commit a regression.
var endToEnd = []metricDef{
	{"window_latency_p50_ms", "ms", lower, 0.25},
	{"window_latency_p95_ms", "ms", lower, 0.25},
	{"records_per_core_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// recoveryMetric is the sixth end-to-end metric. It exists only on
// workloads that kill workers, so it is printed, recorded and diffed by the
// benchmark itself but is not in BENCHMARK.json, whose metrics must exist
// on every workload.
var recoveryMetric = metricDef{"recovery_s", "s", lower, 0.25}

// perLayer lists the metrics of single layers, from the traced run: the
// layer replay first (one row per stage of a micro-batch), then the cluster
// trace. BENCHMARK.json repeats this table.
var perLayer = []metricDef{
	// Layer replay: the workload's own batches fed single-threaded through
	// each layer's public functions.
	{Name: "workload.gen_ns_per_record", Unit: "ns", Better: lower},
	{Name: "dag.narrow_ns_per_record", Unit: "ns", Better: lower},
	{Name: "dag.narrow_selectivity", Unit: "ratio", Better: lower},
	{Name: "data.partition_ns_per_record", Unit: "ns", Better: lower},
	{Name: "shuffle.combine_ns_per_record", Unit: "ns", Better: lower},
	{Name: "shuffle.combine_ratio", Unit: "ratio", Better: lower},
	{Name: "data.encode_ns_per_record", Unit: "ns", Better: lower},
	{Name: "snappy.encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "snappy.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "shuffle.put_ns_per_record", Unit: "ns", Better: lower},
	{Name: "shuffle.block_bytes_per_record", Unit: "B", Better: lower},
	{Name: "shuffle.fetch_us_per_block", Unit: "us", Better: lower},
	{Name: "shuffle.fetch_mb_s", Unit: "MB/s", Better: higher},
	{Name: "data.decode_ns_per_record", Unit: "ns", Better: lower},
	{Name: "engine.state.apply_ns_per_record", Unit: "ns", Better: lower},
	{Name: "engine.state.snapshot_us", Unit: "us", Better: lower},
	{Name: "engine.state.keys", Unit: "count", Better: lower},
	{Name: "checkpoint.encode_us", Unit: "us", Better: lower},
	{Name: "checkpoint.snapshot_bytes", Unit: "B", Better: lower},
	{Name: "checkpoint.put_us", Unit: "us", Better: lower},
	{Name: "wal.commit_sync_us", Unit: "us", Better: lower},
	{Name: "core.plan_group_us", Unit: "us", Better: lower},
	{Name: "core.tasks_per_group", Unit: "count", Better: lower},
	{Name: "rpc.launch_encode_us", Unit: "us", Better: lower},
	{Name: "rpc.launch_decode_us", Unit: "us", Better: lower},
	{Name: "rpc.launch_bytes", Unit: "B", Better: lower},
	{Name: "rpc.tcp_roundtrip_us", Unit: "us", Better: lower},
	{Name: "core.localsched.release_us", Unit: "us", Better: lower},
	{Name: "replay.records_per_core_s", Unit: "1/s", Better: higher},
	{Name: "replay.self_time_coverage", Unit: "ratio", Better: higher},
	// Cluster trace: a shorter run of the same workload with the engine's
	// tracer and registry on and the benchmark's wrappers recording.
	{Name: "engine.driver.schedule_ms_per_group", Unit: "ms", Better: lower},
	{Name: "engine.driver.launch_ms_per_group", Unit: "ms", Better: lower},
	{Name: "engine.driver.wait_ms_per_group", Unit: "ms", Better: lower},
	{Name: "engine.driver.commit_us_per_task", Unit: "us", Better: lower},
	{Name: "engine.driver.checkpoint_store_ms_per_group", Unit: "ms", Better: lower},
	{Name: "engine.driver.coord_share", Unit: "ratio", Better: lower},
	{Name: "engine.driver.resubmits", Unit: "count", Better: lower},
	{Name: "engine.driver.stall_resends", Unit: "count", Better: lower},
	{Name: "engine.worker.source_start_lag_ms_p95", Unit: "ms", Better: lower},
	{Name: "engine.worker.preschedule_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.worker.fetch_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.worker.map_execute_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.worker.reduce_execute_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.worker.checkpoint_capture_ms_p50", Unit: "ms", Better: lower},
	{Name: "engine.worker.slot_busy_share", Unit: "ratio", Better: lower},
	{Name: "shuffle.fetch_bytes_per_batch", Unit: "B", Better: lower},
	{Name: "shuffle.fetch_errors", Unit: "count", Better: lower},
	{Name: "shuffle.partition_skew", Unit: "ratio", Better: lower},
	{Name: "rpc.sent_per_batch", Unit: "count", Better: lower},
	{Name: "rpc.socket_writes_per_batch", Unit: "count", Better: lower},
	{Name: "rpc.send_errors", Unit: "count", Better: lower},
	{Name: "runtime.alloc_bytes_per_record", Unit: "B", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.cpu_cores", Unit: "cores", Better: lower},
	{Name: "engine.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

// metricValue is one measured value as it appears in the output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects metric values by name during a run.
type values map[string]float64

// render turns the collected values into the output form, in the order of
// defs; every def must have a value.
func (v values) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}
