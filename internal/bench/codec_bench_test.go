package bench

import (
	"fmt"
	"testing"

	"drizzle/internal/core"
	"drizzle/internal/data"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
)

// Payload-shape benchmarks for the wire codec: one encode + decode
// round-trip per op over the message shapes the cluster actually sends.
// Shapes cover the three regimes the codec targets — tiny frequent
// control messages, wide fan-out control messages (group scheduling's
// LaunchTasks bundle), and bulk data-plane blocks (record batches, raw
// compressible state). wire-B/op reports the encoded size, so the run shows
// both CPU and bytes-on-the-wire per shape.

func benchTaskStatus() any {
	return core.TaskStatus{
		ID:          core.TaskID{Batch: 41, Stage: 1, Partition: 7},
		Worker:      "worker-3",
		OK:          true,
		OutputSizes: []int64{4096, 1024, 16384, 0},
		RunNanos:    7_400_000,
		QueueNanos:  180_000,
		TraceSpan:   0x1234_5678_9ABC,
	}
}

func benchLaunchTasks(tasks int) any {
	m := core.LaunchTasks{PurgeBefore: 38}
	dep := core.Dep{Job: "wordcount", Batch: 41, Stage: 0}
	for i := 0; i < tasks; i++ {
		d := dep
		d.MapPartition = i % 8
		m.Tasks = append(m.Tasks, core.TaskDescriptor{
			Job:       "wordcount",
			ID:        core.TaskID{Batch: 41, Stage: 1, Partition: i},
			NotBefore: 1_700_000_000_000_000_000,
			Deps:      []core.Dep{d},
			KnownLocations: []core.DepLocation{
				{Dep: d, Node: rpc.NodeID(fmt.Sprintf("worker-%d", i%4))},
			},
			NotifyDownstream: true,
			Group:            13,
			MinState:         37,
		})
	}
	return m
}

func benchBatchBlock(recs int) any {
	rs := make([]data.Record, recs)
	for i := range rs {
		rs[i] = data.Record{Key: uint64(i * 3), Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)}
	}
	return shuffle.FetchResponse{
		ID: 9,
		Blocks: []shuffle.Block{{
			ID: shuffle.BlockID{Job: "wordcount", Batch: 41, Stage: 0, ReducePartition: 3},
			// What Store.Put actually produces and serves: columnar,
			// format-2 compressed above the threshold.
			Data: data.CompressBatch(data.EncodeBatchColumnar(nil, rs), 4<<10),
		}},
	}
}

// benchShippedHeartbeat is a heartbeat carrying a realistic telemetry
// payload: the changed-only delta a busy worker ships every beat (a few
// counters, its queue gauges, and the task-runtime summary). The gap between
// this shape and the bare "heartbeat" shape is the per-beat wire cost of
// metric shipping.
func benchShippedHeartbeat() any {
	key := func(name string) string { return name + `{worker="worker-3"}` }
	return core.Heartbeat{
		Worker: "worker-3", Nanos: 1_700_000_000_000_000_000,
		Incarnation: 1_700_000_000_000_000_000, Seq: 17,
		Counters: []core.CounterSample{
			{Key: key("drizzle_worker_tasks_ok_total"), Value: 4210},
			{Key: key("drizzle_worker_shuffle_fetches_total"), Value: 1963},
			{Key: key("drizzle_worker_shuffle_fetch_bytes_total"), Value: 88_316_412},
		},
		Gauges: []core.GaugeSample{
			{Key: key("drizzle_worker_queue_depth"), Value: 3},
			{Key: key("drizzle_worker_pending_tasks"), Value: 11},
		},
		Summaries: []core.SummarySample{{
			Key: key("drizzle_worker_task_run_ms"), Count: 4210, Sum: 9_871.4,
			P50: 1.9, P95: 6.2, P99: 11.0, Max: 41.7,
		}},
	}
}

func benchCheckpointState(size int) any {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i / 48) // compressible, like real sorted state
	}
	return core.CheckpointData{Job: "wordcount", Stage: 1, Partition: 3, UpTo: 41, State: b}
}

func BenchmarkCodecPayloadShapes(b *testing.B) {
	shapes := []struct {
		name string
		msg  any
	}{
		{"task-status", benchTaskStatus()},
		{"heartbeat", core.Heartbeat{Worker: "worker-3", Nanos: 1_700_000_000_000_000_000}},
		{"heartbeat-shipped", benchShippedHeartbeat()},
		{"launch-64-tasks", benchLaunchTasks(64)},
		{"batch-block-4k-recs", benchBatchBlock(4096)},
		{"state-64k", benchCheckpointState(64 << 10)},
	}
	codec := rpc.DefaultCodec
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			enc, err := codec.EncodeMessage(nil, shape.msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				out, err := codec.EncodeMessage(buf[:0], shape.msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.DecodeMessage(out); err != nil {
					b.Fatal(err)
				}
			}
			// After ResetTimer: it deletes user-reported metrics.
			b.ReportMetric(float64(len(enc)), "wire-B/op")
		})
	}
}
