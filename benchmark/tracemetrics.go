package main

import obsmetrics "drizzle/internal/metrics"

// counterSum adds up one counter family over all its label sets, leaving
// out the driver's "cluster:" mirrors of the same worker series.
func counterSum(s obsmetrics.Snapshot, family string) float64 {
	var n int64
	for k, v := range s.Counters {
		if obsmetrics.Family(k) == family {
			n += v
		}
	}
	return float64(n)
}

// clusterTraceMetrics derives the per-layer metrics of the cluster trace
// from a traced run: the engine's own spans and counters (read only), the
// benchmark's wrappers and the process's usage over the measured interval.
// untraced is the same workload run the same way with tracing off; the
// difference in CPU per record is what tracing costs.
func clusterTraceMetrics(traced, untraced *clusterRun, replay values) values {
	v := values{}
	spec := traced.spec
	from, to := traced.measuredFrom(), traced.to.at.UnixNano()

	durMS := map[string][]float64{} // span name (maps and reduces apart) -> durations
	for _, s := range traced.engineSpans {
		if s.Start < from || s.Start > to {
			continue
		}
		name := s.Name
		if name == "task.execute" {
			if s.Stage == 0 {
				name = "map.execute"
			} else {
				name = "reduce.execute"
			}
		}
		durMS[name] = append(durMS[name], float64(s.Dur)/1e6)
	}
	sum := func(name string) float64 {
		var t float64
		for _, d := range durMS[name] {
			t += d
		}
		return t
	}
	mean := func(name string) float64 {
		if len(durMS[name]) == 0 {
			return 0
		}
		return sum(name) / float64(len(durMS[name]))
	}
	groups := float64(len(durMS["group"]))
	perGroup := func(name string) float64 {
		if groups == 0 {
			return 0
		}
		return sum(name) / groups
	}
	batches := float64(traced.numBatches - traced.warmupBatches)
	wallMS := float64(to-from) / 1e6

	v["engine.driver.schedule_ms_per_group"] = perGroup("group.schedule")
	v["engine.driver.launch_ms_per_group"] = perGroup("group.launch")
	v["engine.driver.wait_ms_per_group"] = perGroup("group.wait")
	v["engine.driver.commit_us_per_task"] = mean("task.commit") * 1e3
	v["engine.driver.checkpoint_store_ms_per_group"] = perGroup("checkpoint.store")
	if total := traced.stats.Coord + traced.stats.Exec; total > 0 {
		v["engine.driver.coord_share"] = float64(traced.stats.Coord) / float64(total)
	}
	v["engine.driver.resubmits"] = float64(traced.stats.Resubmits)
	v["engine.driver.stall_resends"] = counterSum(traced.registry, "drizzle_driver_stall_resends_total")

	lags := traced.lags()
	v["engine.worker.source_start_lag_ms_p95"] = percentile(lags, 95) / 1e6
	v["engine.worker.preschedule_ms_p50"] = median(durMS["task.preschedule"])
	v["engine.worker.fetch_ms_p50"] = median(durMS["task.fetch"])
	v["engine.worker.map_execute_ms_p50"] = median(durMS["map.execute"])
	v["engine.worker.reduce_execute_ms_p50"] = median(durMS["reduce.execute"])
	v["engine.worker.checkpoint_capture_ms_p50"] = median(durMS["checkpoint.capture"])
	// A task span runs from ready to done; what precedes the slot picking
	// it up is queueing, the rest (generator included, which no engine span
	// covers on its own) is a busy slot.
	busy := sum("task") - sum("task.preschedule")
	v["engine.worker.slot_busy_share"] = busy / (wallMS * float64(spec.workers*slotsPerWorker))

	v["shuffle.fetch_bytes_per_batch"] = counterSum(traced.registry, "drizzle_worker_shuffle_fetch_bytes_total") / float64(traced.numBatches)
	v["shuffle.fetch_errors"] = counterSum(traced.registry, "drizzle_worker_shuffle_fetch_errors_total") +
		counterSum(traced.registry, "drizzle_worker_shuffle_fetch_timeouts_total")
	var maxRouted, totalRouted float64
	for i := range traced.rec.routed {
		n := float64(traced.rec.routed[i].Load())
		totalRouted += n
		if n > maxRouted {
			maxRouted = n
		}
	}
	if totalRouted > 0 {
		v["shuffle.partition_skew"] = maxRouted / (totalRouted / float64(spec.reduceParts))
	}

	v["rpc.sent_per_batch"] = float64(traced.to.transport.Sent-traced.from.transport.Sent) / batches
	v["rpc.socket_writes_per_batch"] = float64(traced.to.transport.SocketWrites-traced.from.transport.SocketWrites) / batches
	v["rpc.send_errors"] = float64(traced.to.transport.SendErrors - traced.from.transport.SendErrors)

	records := float64(traced.records())
	cpu := (traced.to.cpu - traced.from.cpu).Seconds()
	v["runtime.alloc_bytes_per_record"] = float64(traced.to.allocBytes-traced.from.allocBytes) / records
	v["runtime.gc_cpu_share"] = (traced.to.gcCPU - traced.from.gcCPU) / cpu

	baseCPU := (untraced.to.cpu - untraced.from.cpu).Seconds()
	baseRecords := float64(untraced.records())
	v["runtime.cpu_cores"] = baseCPU / untraced.to.at.Sub(untraced.from.at).Seconds()
	v["engine.overhead_ratio"] = replay["replay.records_per_core_s"] / (baseRecords / baseCPU)
	v["trace.overhead_share"] = (cpu/records)/(baseCPU/baseRecords) - 1
	return v
}
