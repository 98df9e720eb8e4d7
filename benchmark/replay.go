package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/engine"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
	"drizzle/internal/snappy"
)

const (
	// replayBatches is how many micro-batches the layer replay feeds
	// through the layers, unless its time budget ends it sooner.
	replayBatches = 100
	// replayEpoch is the job epoch of the replay. Inputs are pure functions
	// of event time, so a fixed epoch makes the replay's input depend on
	// the seed alone. It is a multiple of every workload's window.
	replayEpoch = int64(1_700_000_100) * int64(time.Second)
	// blockCompressThreshold mirrors shuffle.Store.Put, which the replay
	// takes apart into encode, compress and store so each can be timed
	// (TestReplayBlocksMatchStorePut guards the copy).
	blockCompressThreshold = 4 << 10
)

// stageTimer times consecutive stages of single-threaded work: each stage
// runs from the end of the previous one, so bookkeeping between stages is
// charged to a stage instead of vanishing, and self times add up to the
// wall time.
type stageTimer struct {
	spans  *spanLog
	parent uint64
	batch  int64
	last   time.Time
	total  map[string]time.Duration
}

func (t *stageTimer) done(name string) {
	now := time.Now()
	t.total[name] += now.Sub(t.last)
	t.spans.add(name, t.last, now, t.parent, t.batch)
	t.last = now
}

// layerReplay feeds the workload's own input, batch by batch and single-
// threaded, through the public functions of every layer a micro-batch
// crosses in the engine, and times each call. It yields one row per stage
// (the per-stage micro-batch cost model of LMStream, arXiv:2111.04289) and
// the single-threaded baseline of the same job.
func layerReplay(spec *workloadSpec, seed uint64, budget time.Duration, spans *spanLog) (values, error) {
	v := values{}
	parts := spec.build(spec, seed, 1)
	var ops []dag.NarrowOp
	if parts.op != nil {
		ops = []dag.NarrowOp{parts.op}
	}
	job, err := buildJob(spec, parts.source, parts.op, func(int64, int, []data.Record) {})
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var ckpt checkpoint.StateBackend = checkpoint.NewMemStore()
	if spec.durable {
		ls, err := checkpoint.OpenLogStore(filepath.Join(dir, "state"), checkpoint.LogOptions{})
		if err != nil {
			return nil, err
		}
		ckpt = ls
	}
	defer ckpt.Close()

	var (
		interval    = int64(spec.interval)
		win         = dag.WindowSpec{Size: spec.window()}
		partitioner = data.NewHashPartitioner(spec.reduceParts)
		bucket      = shuffle.WindowBucket(win)
		store       = shuffle.NewStore()
		states      = engine.NewStateStore()
		closeNanos  = func(b core.BatchID) int64 { return replayEpoch + int64(b+1)*interval }
		timer       = &stageTimer{spans: spans, total: map[string]time.Duration{}}

		records, narrowOut, combineIn, combineOut int64
		putRecords, blockBytes                    int64
		decoded, applied                          int64
		snapshots, snapKeys, snapBytes            int64
		batchWall                                 time.Duration
	)
	blockID := func(b int64, m, r int) shuffle.BlockID {
		return shuffle.BlockID{Job: jobName, Batch: b, Stage: 0, MapPartition: m, ReducePartition: r}
	}

	began := time.Now()
	cpu0 := cpuTime()
	batches := 0
	for b := int64(0); b < replayBatches; b++ {
		if b >= 2*groupSize && b%groupSize == 0 && time.Since(began) > budget {
			break // out of time; at least two whole groups are in
		}
		batches++
		start := time.Now()
		timer.parent = spans.add("replay.batch", start, start, 0, b) // end patched below
		timer.batch, timer.last = b, start
		for m := 0; m < spec.mapParts; m++ {
			recs := parts.source(dag.BatchInfo{
				Batch: b, Partition: m,
				Start: replayEpoch + b*interval, End: replayEpoch + (b+1)*interval,
			})
			records += int64(len(recs))
			timer.done("workload.gen")
			for _, op := range ops {
				recs = op(recs)
			}
			narrowOut += int64(len(recs))
			timer.done("dag.narrow")
			split := data.PartitionRecords(recs, partitioner)
			timer.done("data.partition")
			for r, out := range split {
				if spec.combine {
					combineIn += int64(len(out))
					out = shuffle.Combine(out, dag.Sum, bucket)
					combineOut += int64(len(out))
					timer.done("shuffle.combine")
				}
				enc := data.EncodeBatchColumnar(make([]byte, 0, data.EncodedSize(out)), out)
				timer.done("data.encode")
				enc = data.CompressBatch(enc, blockCompressThreshold)
				timer.done("data.compress")
				store.PutRaw(blockID(b, m, r), enc)
				putRecords += int64(len(out))
				blockBytes += int64(len(enc))
				timer.done("shuffle.put")
			}
		}
		for r := 0; r < spec.reduceParts; r++ {
			var in []data.Record
			for m := 0; m < spec.mapParts; m++ {
				raw, ok := store.GetRaw(blockID(b, m, r))
				if !ok {
					return nil, fmt.Errorf("replay: block b=%d m=%d r=%d missing", b, m, r)
				}
				recs, _, err := data.DecodeBatch(raw)
				if err != nil {
					return nil, fmt.Errorf("replay: decode: %w", err)
				}
				in = append(in, recs...)
			}
			decoded += int64(len(in))
			timer.done("data.decode")
			key := checkpoint.StateKey{Job: jobName, Stage: 1, Partition: r}
			states.ApplyBatch(key, core.BatchID(b), in, dag.Sum, win, closeNanos)
			applied += int64(len(in))
			timer.done("engine.state.apply")
		}
		if (b+1)%groupSize == 0 {
			// The group barrier: every partition is snapshotted, shipped to
			// the driver (encode, decode), stored and synced; blocks of the
			// previous group become garbage.
			for r := 0; r < spec.reduceParts; r++ {
				key := checkpoint.StateKey{Job: jobName, Stage: 1, Partition: r}
				snap, ok := states.Snapshot(key, core.BatchID(b))
				if !ok {
					return nil, fmt.Errorf("replay: partition %d lags at batch %d", r, b)
				}
				snapshots++
				for _, kv := range snap.Windows {
					snapKeys += int64(len(kv))
				}
				timer.done("engine.state.snapshot")
				enc := snap.Encode()
				snapBytes += int64(len(enc))
				timer.done("checkpoint.encode")
				dec, err := checkpoint.DecodeSnapshot(key, enc)
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				if err := ckpt.Put(dec); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				timer.done("checkpoint.put")
			}
			if err := ckpt.Sync(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			timer.done("checkpoint.put")
			store.PurgeBefore(b + 1 - groupSize)
			timer.done("shuffle.purge")
		}
		end := time.Now()
		batchWall += end.Sub(start)
		spans.setEnd(timer.parent, end)
	}
	cpu := cpuTime() - cpu0

	var covered time.Duration
	for _, d := range timer.total {
		covered += d
	}
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	barriers := int64(batches / groupSize)
	v["workload.gen_ns_per_record"] = per(timer.total["workload.gen"], records)
	v["dag.narrow_ns_per_record"] = per(timer.total["dag.narrow"], records)
	v["dag.narrow_selectivity"] = ratio(narrowOut, records)
	v["data.partition_ns_per_record"] = per(timer.total["data.partition"], narrowOut)
	v["data.encode_ns_per_record"] = per(timer.total["data.encode"], putRecords)
	v["shuffle.put_ns_per_record"] = per(timer.total["shuffle.put"], putRecords)
	v["shuffle.block_bytes_per_record"] = ratio(blockBytes, putRecords)
	v["data.decode_ns_per_record"] = per(timer.total["data.decode"], decoded)
	v["engine.state.apply_ns_per_record"] = per(timer.total["engine.state.apply"], applied)
	v["engine.state.snapshot_us"] = per(timer.total["engine.state.snapshot"], snapshots) / 1e3
	v["engine.state.keys"] = ratio(snapKeys, snapshots)
	v["checkpoint.encode_us"] = per(timer.total["checkpoint.encode"], snapshots) / 1e3
	v["checkpoint.snapshot_bytes"] = ratio(snapBytes, snapshots)
	v["checkpoint.put_us"] = per(timer.total["checkpoint.put"], barriers) / 1e3
	v["replay.records_per_core_s"] = float64(records) / cpu.Seconds()
	v["replay.self_time_coverage"] = float64(covered) / float64(batchWall)
	if spec.combine {
		v["shuffle.combine_ns_per_record"] = per(timer.total["shuffle.combine"], combineIn)
		v["shuffle.combine_ratio"] = ratio(combineOut, combineIn)
	}

	if err := replayCodecs(spec, parts, ops, v, spans); err != nil {
		return nil, err
	}
	if err := replayFetch(spec, store, int64(batches), v, spans); err != nil {
		return nil, err
	}
	if err := replayControlPlane(spec, job, dir, v, spans); err != nil {
		return nil, err
	}
	return v, nil
}

// replayCodecs measures what the batch pipeline cannot show for every
// workload: snappy on the workload's own blocks whatever their size (the
// store compresses only blocks above its threshold), and the combiner on
// workloads that ship raw records (what combining would cost and save).
func replayCodecs(spec *workloadSpec, parts jobParts, ops []dag.NarrowOp, v values, spans *spanLog) error {
	var (
		interval    = int64(spec.interval)
		partitioner = data.NewHashPartitioner(spec.reduceParts)
		bucket      = shuffle.WindowBucket(dag.WindowSpec{Size: spec.window()})
		extra       = &stageTimer{spans: spans, total: map[string]time.Duration{}}

		rawBytes, combineIn, combineOut int64
	)
	for b := int64(0); b < groupSize; b++ {
		for m := 0; m < spec.mapParts; m++ {
			recs := parts.source(dag.BatchInfo{
				Batch: b, Partition: m,
				Start: replayEpoch + b*interval, End: replayEpoch + (b+1)*interval,
			})
			for _, op := range ops {
				recs = op(recs)
			}
			for _, out := range data.PartitionRecords(recs, partitioner) {
				extra.batch, extra.last = b, time.Now()
				combined := shuffle.Combine(out, dag.Sum, bucket)
				extra.done("extra.combine")
				combineIn += int64(len(out))
				combineOut += int64(len(combined))
				if spec.combine {
					out = combined
				}
				enc := data.EncodeBatchColumnar(nil, out)
				extra.last = time.Now()
				packed := snappy.AppendEncoded(nil, enc)
				extra.done("snappy.encode")
				back, err := snappy.Decode(packed)
				extra.done("snappy.decode")
				if err != nil || len(back) != len(enc) {
					return fmt.Errorf("replay: snappy round trip failed: %v", err)
				}
				rawBytes += int64(len(enc))
			}
		}
	}
	mbPerSec := func(d time.Duration) float64 { return float64(rawBytes) / 1e6 / d.Seconds() }
	v["snappy.encode_mb_s"] = mbPerSec(extra.total["snappy.encode"])
	v["snappy.decode_mb_s"] = mbPerSec(extra.total["snappy.decode"])
	if !spec.combine {
		v["shuffle.combine_ns_per_record"] = float64(extra.total["extra.combine"]) / float64(combineIn)
		v["shuffle.combine_ratio"] = float64(combineOut) / float64(combineIn)
	}
	return nil
}

// replayFetch serves the last replayed group's blocks from a shuffle
// Service to a Fetcher over a pair of loopback TCP transports, one request
// per (batch, reduce partition) as a reduce task with one remote holder
// would issue it, and times an empty request for the bare round trip.
func replayFetch(spec *workloadSpec, store *shuffle.Store, batches int64, v values, spans *spanLog) error {
	const holder, client = rpc.NodeID("holder"), rpc.NodeID("fetcher")
	holderNet := rpc.NewTCPNetworkWithConfig(tcpConfig(nil))
	defer holderNet.Close()
	clientNet := rpc.NewTCPNetworkWithConfig(tcpConfig(nil))
	defer clientNet.Close()

	service := shuffle.NewService(store, func(to rpc.NodeID, msg any) error {
		return holderNet.Send(holder, to, msg)
	})
	fetcher := shuffle.NewFetcher(client, func(to rpc.NodeID, msg any) error {
		return clientNet.Send(client, to, msg)
	})
	err := holderNet.Register(holder, func(_ rpc.NodeID, msg any) {
		if req, ok := msg.(shuffle.FetchRequest); ok {
			service.HandleRequest(req)
		}
	})
	if err != nil {
		return err
	}
	err = clientNet.Register(client, func(_ rpc.NodeID, msg any) {
		if resp, ok := msg.(shuffle.FetchResponse); ok {
			fetcher.HandleResponse(resp)
		}
	})
	if err != nil {
		return err
	}
	holderAddr, _ := holderNet.Addr(holder)
	clientAddr, _ := clientNet.Addr(client)
	clientNet.Announce(holder, holderAddr)
	holderNet.Announce(client, clientAddr)

	const timeout = 2 * time.Second
	if _, err := fetcher.Fetch(holder, nil, timeout); err != nil { // dials both routes
		return fmt.Errorf("replay: fetch warm-up: %w", err)
	}
	var trips []float64
	for i := 0; i < 300; i++ {
		begin := time.Now()
		if _, err := fetcher.Fetch(holder, nil, timeout); err != nil {
			return fmt.Errorf("replay: round trip: %w", err)
		}
		end := time.Now()
		spans.add("rpc.tcp_roundtrip", begin, end, 0, -1)
		trips = append(trips, float64(end.Sub(begin))/1e3)
	}
	v["rpc.tcp_roundtrip_us"] = median(trips)

	var (
		total         time.Duration
		blocks, bytes int64
	)
	for round := 0; round < 3; round++ {
		for b := batches - groupSize; b < batches; b++ {
			for r := 0; r < spec.reduceParts; r++ {
				ids := make([]shuffle.BlockID, spec.mapParts)
				for m := range ids {
					ids[m] = shuffle.BlockID{Job: jobName, Batch: b, Stage: 0, MapPartition: m, ReducePartition: r}
				}
				begin := time.Now()
				got, err := fetcher.Fetch(holder, ids, timeout)
				end := time.Now()
				if err != nil {
					return fmt.Errorf("replay: fetch: %w", err)
				}
				spans.add("shuffle.fetch", begin, end, 0, b)
				total += end.Sub(begin)
				blocks += int64(len(got))
				for _, blk := range got {
					bytes += int64(len(blk.Data))
				}
			}
		}
	}
	v["shuffle.fetch_us_per_block"] = float64(total) / 1e3 / float64(blocks)
	v["shuffle.fetch_mb_s"] = float64(bytes) / 1e6 / total.Seconds()
	return nil
}

// replayControlPlane times the driver's per-group work on the workload's
// own plan: planning a group, encoding and decoding one worker's launch
// bundle, releasing pre-scheduled reduce tasks in a worker's local
// scheduler, and a group commit on the driver's write-ahead log.
func replayControlPlane(spec *workloadSpec, job *dag.Job, dir string, v values, spans *spanLog) error {
	const rounds = 50
	timed := func(name string, fn func() error) (float64, error) {
		var us []float64
		for i := 0; i < rounds; i++ {
			begin := time.Now()
			if err := fn(); err != nil {
				return 0, fmt.Errorf("replay: %s: %w", name, err)
			}
			end := time.Now()
			spans.add(name, begin, end, 0, -1)
			us = append(us, float64(end.Sub(begin))/1e3)
		}
		return median(us), nil
	}

	ids := make([]rpc.NodeID, spec.workers)
	for i := range ids {
		ids[i] = rpc.NodeID(fmt.Sprintf("w%d", i))
	}
	placement := core.NewPlacement(1, ids)
	planner := &core.GroupPlanner{JobName: jobName, Job: job, StartNanos: replayEpoch}
	var (
		byWorker map[rpc.NodeID][]core.TaskDescriptor
		all      []core.TaskDescriptor
		err      error
	)
	v["core.plan_group_us"], _ = timed("core.plan_group", func() error {
		byWorker, all = planner.PlanGroup(placement, 0, groupSize, 0)
		return nil
	})
	v["core.tasks_per_group"] = float64(len(all))

	// The largest bundle is the one whose encode sits on the launch path
	// the longest.
	var bundle core.LaunchTasks
	for _, tasks := range byWorker {
		if len(tasks) > len(bundle.Tasks) {
			bundle.Tasks = tasks
		}
	}
	var wire []byte
	if v["rpc.launch_encode_us"], err = timed("rpc.launch_encode", func() error {
		wire, err = rpc.DefaultCodec.EncodeMessage(wire[:0], bundle)
		return err
	}); err != nil {
		return err
	}
	v["rpc.launch_bytes"] = float64(len(wire))
	if v["rpc.launch_decode_us"], err = timed("rpc.launch_decode", func() error {
		_, err := rpc.DefaultCodec.DecodeMessage(wire)
		return err
	}); err != nil {
		return err
	}

	// Pre-scheduled reduce tasks wait in the local scheduler for one
	// DataReady per map partition; the last one releases the task.
	var reduces []core.TaskDescriptor
	for _, d := range all {
		if len(d.Deps) > 0 {
			reduces = append(reduces, d)
		}
	}
	ls := core.NewLocalScheduler(0)
	begin := time.Now()
	for _, d := range reduces {
		ls.Add(d)
		for _, dep := range d.Deps {
			ls.OnDataReady(dep, ids[0])
		}
		<-ls.Runnable()
	}
	end := time.Now()
	ls.Close()
	spans.add("core.localsched.release", begin, end, 0, -1)
	v["core.localsched.release_us"] = float64(end.Sub(begin)) / 1e3 / float64(len(reduces))

	wal, err := engine.OpenDriverWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	commit := int64(0)
	v["wal.commit_sync_us"], err = timed("wal.commit_sync", func() error {
		commit += groupSize
		if err := wal.AppendGroupCommit(commit); err != nil {
			return err
		}
		return wal.Sync()
	})
	return err
}
