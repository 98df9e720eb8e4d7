package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
	"drizzle/internal/trace"
)

const (
	// shuffleServers is the number of goroutines serving shuffle fetch
	// requests.
	shuffleServers = 2
	// shuffleQueue bounds the backlog of fetch requests awaiting service;
	// overflow is dropped (the fetcher times out and the driver retries
	// the task), matching the transport's shed-on-overload policy.
	shuffleQueue = 1024
	// metricFullShipEvery makes every Nth heartbeat carry the worker's
	// entire series set instead of only series changed since the previous
	// one. Full ships bound the staleness a dropped changed-only heartbeat
	// can leave in the driver's mirror.
	metricFullShipEvery = 8
)

// Worker is one executor node: it runs tasks in a fixed number of slots,
// serves its shuffle blocks to peers, holds terminal-stage window state,
// and hosts the local scheduler that makes pre-scheduling work.
type Worker struct {
	id     rpc.NodeID
	driver rpc.NodeID
	net    rpc.Network
	cfg    Config
	reg    *Registry

	ls      *core.LocalScheduler
	store   *shuffle.Store
	service *shuffle.Service
	fetcher *shuffle.Fetcher
	states  *StateStore

	log *slog.Logger

	mu        sync.Mutex
	jobs      map[string]*jobInfo
	placement core.Placement
	// lastDriver is when the driver was last heard from; prolonged silence
	// triggers re-registration (the driver may have restarted and lost its
	// membership table). lastRegister rate-limits the re-sends.
	lastDriver   time.Time
	lastRegister time.Time
	// kills marks task attempts the driver told us to abandon: pending ones
	// are dequeued immediately, running ones have their status report
	// suppressed when they finish. Marks are garbage-collected by the purge
	// watermark that rides on LaunchTasks.
	kills     map[core.TaskAttempt]bool
	killedCnt *metrics.Counter

	// Registry-backed task counters, labeled by worker.
	mTasksOK     *metrics.Counter
	mTasksFailed *metrics.Counter
	mFetchDrop   *metrics.Counter
	// Telemetry series shipped to the driver on heartbeats: queue/pending
	// gauges refreshed each beat, task run-time histogram observed per task.
	mQueueDepth *metrics.Gauge
	mPending    *metrics.Gauge
	mRunMS      *metrics.Histogram
	shipper     *metricShipper

	// fetchQ feeds the shuffle serve pool: block serving runs on dedicated
	// goroutines instead of the transport's delivery goroutine, so a slow
	// block read never stalls control-message handling.
	fetchQ chan shuffle.FetchRequest

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type jobInfo struct {
	name       string // registry name, used in messages and state keys
	job        *dag.Job
	startNanos int64
}

// closeNanos maps a batch to its wall-clock close time.
func (ji *jobInfo) closeNanos(b core.BatchID) int64 {
	return ji.startNanos + int64(b+1)*int64(ji.job.Interval)
}

// NewWorker constructs a worker; call Start to attach it to the network.
func NewWorker(id, driver rpc.NodeID, net rpc.Network, reg *Registry, cfg Config) *Worker {
	cfg = cfg.withDefaults()
	w := &Worker{
		id:     id,
		driver: driver,
		net:    net,
		cfg:    cfg,
		reg:    reg,
		log:    obs.Component(cfg.Logger, "worker").With("node", string(id)),
		ls:     core.NewLocalScheduler(0),
		store:  shuffle.NewStore(),
		states: NewStateStore(),
		jobs:   make(map[string]*jobInfo),
		kills:  make(map[core.TaskAttempt]bool),
		fetchQ: make(chan shuffle.FetchRequest, shuffleQueue),
		stop:   make(chan struct{}),

		killedCnt:    cfg.Metrics.Counter("drizzle_worker_tasks_killed_total", "worker", string(id)),
		mTasksOK:     cfg.Metrics.Counter("drizzle_worker_tasks_ok_total", "worker", string(id)),
		mTasksFailed: cfg.Metrics.Counter("drizzle_worker_tasks_failed_total", "worker", string(id)),
		mFetchDrop:   cfg.Metrics.Counter("drizzle_worker_fetch_dropped_total", "worker", string(id)),
		mQueueDepth:  cfg.Metrics.Gauge("drizzle_worker_queue_depth", "worker", string(id)),
		mPending:     cfg.Metrics.Gauge("drizzle_worker_pending_tasks", "worker", string(id)),
		mRunMS:       cfg.Metrics.Histogram("drizzle_worker_task_run_ms", "worker", string(id)),
	}
	send := func(to rpc.NodeID, msg any) error { return net.Send(id, to, msg) }
	w.store.InstrumentMetrics(cfg.Metrics, string(id))
	w.service = shuffle.NewService(w.store, send)
	w.fetcher = shuffle.NewFetcher(id, send)
	w.fetcher.InstrumentMetrics(cfg.Metrics)
	return w
}

// ID returns the worker's node id.
func (w *Worker) ID() rpc.NodeID { return w.id }

// Start registers the worker on the network and launches its executor
// slots and heartbeat loop.
func (w *Worker) Start() error {
	if err := w.net.Register(w.id, w.handle); err != nil {
		return fmt.Errorf("engine: worker %s: %w", w.id, err)
	}
	for i := 0; i < w.cfg.SlotsPerWorker; i++ {
		w.wg.Add(1)
		go w.slotLoop()
	}
	for i := 0; i < shuffleServers; i++ {
		w.wg.Add(1)
		go w.serveFetchLoop()
	}
	w.mu.Lock()
	w.lastDriver = time.Now()
	w.lastRegister = time.Now()
	w.mu.Unlock()
	// The incarnation (process start time) lets the driver tell a
	// restarted worker's fresh counters from stale ships of its past life.
	w.shipper = newMetricShipper(w.cfg.Metrics, w.id, time.Now().UnixNano(), metricFullShipEvery)
	w.send(w.driver, core.RegisterWorker{Worker: w.id, Addr: w.cfg.AdvertiseAddr})
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

// serveFetchLoop drains the fetch queue onto the shuffle service.
func (w *Worker) serveFetchLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case req := <-w.fetchQ:
			w.service.HandleRequest(req)
		}
	}
}

// Stop halts the worker. It does not unregister from the network so that
// failure injection (net.Fail) keeps behaving like a machine death.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		w.ls.Close()
	})
	w.wg.Wait()
}

func (w *Worker) send(to rpc.NodeID, msg any) {
	// Send errors mean the peer is unknown or failed; the driver's failure
	// handling owns that situation, so the worker just drops the message.
	_ = w.net.Send(w.id, to, msg)
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.HeartbeatInterval)
	defer t.Stop()
	reRegisterAfter := w.cfg.reRegisterAfter()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			// Refresh the saturation gauges right before shipping so the
			// driver's mirror is at most one beat stale.
			w.mQueueDepth.Set(float64(w.ls.QueueDepth()))
			w.mPending.Set(float64(w.ls.PendingCount()))
			hb := core.Heartbeat{Worker: w.id, Nanos: now.UnixNano()}
			w.shipper.collect(&hb)
			w.send(w.driver, hb)
			// Driver silence past the threshold suggests it restarted and
			// no longer knows us (a live driver sends at least membership
			// and launches); re-register until it speaks again. The TCP
			// transport already redials with exponential backoff underneath,
			// so this is purely app-level re-admission.
			w.mu.Lock()
			stale := now.Sub(w.lastDriver) > reRegisterAfter &&
				now.Sub(w.lastRegister) > reRegisterAfter
			if stale {
				w.lastRegister = now
			}
			w.mu.Unlock()
			if stale {
				w.send(w.driver, core.RegisterWorker{Worker: w.id, Addr: w.cfg.AdvertiseAddr})
			}
		}
	}
}

// handle dispatches incoming control and data messages. It runs on the
// transport's delivery goroutine; anything slow is handed to slots.
func (w *Worker) handle(from rpc.NodeID, msg any) {
	if from == w.driver {
		w.mu.Lock()
		w.lastDriver = time.Now()
		w.mu.Unlock()
	}
	switch m := msg.(type) {
	case core.SubmitJob:
		w.onSubmitJob(m)
	case core.MembershipUpdate:
		w.onMembership(m)
	case core.LaunchTasks:
		if m.PurgeBefore > 0 {
			w.store.PurgeBefore(int64(m.PurgeBefore))
			w.ls.Purge(m.PurgeBefore)
			w.pruneKills(m.PurgeBefore)
		}
		for _, desc := range m.Tasks {
			w.ls.Add(desc)
		}
	case core.CancelTasks:
		w.ls.Cancel(m.IDs)
	case core.KillTask:
		w.onKill(m)
	case core.DataReady:
		// Validate the holder against current membership: under faulty links
		// a duplicated notification can arrive long after InvalidateHolders
		// cleaned the location table — or after a driver restart — and would
		// re-poison it with a dead holder that every fetch then chases.
		// Before the first membership update everything is accepted. A
		// notification racing ahead of the membership that adds its holder
		// is dropped here and repaired by the driver's relay or the stall
		// resend. Pushed blocks are stored before the release, so the task
		// the notification activates finds them; an untrusted push stores
		// nothing, and its consumer fetches.
		w.mu.Lock()
		trusted := w.placement.NumWorkers() == 0 || w.placement.Contains(m.Holder)
		w.mu.Unlock()
		if trusted {
			for _, b := range m.Blocks {
				w.store.PutRaw(blockOf(m.Dep, b.Partition), b.Data)
			}
			w.ls.OnDataReady(m.Dep, m.Holder)
		}
	case shuffle.FetchRequest:
		select {
		case w.fetchQ <- m:
		default:
			// Shed rather than block the delivery goroutine: the fetcher
			// times out and the driver retries the task.
			w.mFetchDrop.Inc()
			w.log.Warn("fetch queue full, dropping request", "from", string(m.From))
		}
	case shuffle.FetchResponse:
		w.fetcher.HandleResponse(m)
	case core.TakeCheckpoint:
		w.onTakeCheckpoint(m)
	case core.RestoreState:
		w.onRestoreState(m)
	default:
		w.log.Warn("unexpected message", "type", fmt.Sprintf("%T", msg), "from", string(from))
	}
}

// onKill processes a loser-cancellation from first-result-wins commit:
// attempts still queued in the local scheduler are dequeued outright;
// attempts already running get a kill mark that suppresses their status
// report when they finish (execution is not interrupted mid-op — the state
// store's batch dedup makes a completed loser harmless).
func (w *Worker) onKill(m core.KillTask) {
	w.mu.Lock()
	for _, ta := range m.Tasks {
		w.kills[ta] = true
	}
	w.mu.Unlock()
	if cancelled := w.ls.CancelAttempts(m.Tasks); len(cancelled) > 0 {
		w.killedCnt.Add(int64(len(cancelled)))
		w.mu.Lock()
		for _, ta := range cancelled {
			delete(w.kills, ta) // dequeued; the mark has done its job
		}
		w.mu.Unlock()
	}
}

// takeKill consumes the kill mark for an attempt, reporting whether it was
// set.
func (w *Worker) takeKill(ta core.TaskAttempt) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.kills[ta] {
		delete(w.kills, ta)
		return true
	}
	return false
}

// pruneKills drops kill marks for attempts whose micro-batch is behind the
// purge watermark (their loser either ran and was suppressed, or never
// will run).
func (w *Worker) pruneKills(before core.BatchID) {
	w.mu.Lock()
	for ta := range w.kills {
		if ta.ID.Batch < before {
			delete(w.kills, ta)
		}
	}
	w.mu.Unlock()
}

// KilledTasks reports how many task attempts this worker abandoned due to
// KillTask messages.
func (w *Worker) KilledTasks() int64 { return w.killedCnt.Value() }

func (w *Worker) onSubmitJob(m core.SubmitJob) {
	job, ok := w.reg.Lookup(m.Job)
	if !ok {
		w.log.Warn("unknown job submitted", "job", m.Job)
		return
	}
	w.mu.Lock()
	prev := w.jobs[m.Job]
	w.jobs[m.Job] = &jobInfo{name: m.Job, job: job, startNanos: m.StartNanos}
	w.mu.Unlock()
	if prev != nil && prev.startNanos != m.StartNanos {
		// A new run of the job: its batch numbering restarts at zero, so
		// every remnant of the previous run must go.
		w.store.PurgeJob(m.Job)
		w.ls.PurgeJob(m.Job)
		w.states.Retain(func(k checkpoint.StateKey) bool { return k.Job != m.Job })
	}
}

func (w *Worker) onMembership(m core.MembershipUpdate) {
	if a, ok := w.net.(rpc.Announcer); ok {
		for id, addr := range m.Addrs {
			if id != w.id {
				a.Announce(id, addr)
			}
		}
	}
	p := core.NewWeightedPlacement(m.Epoch, m.Workers, m.Weights)
	w.mu.Lock()
	if p.Epoch() < w.placement.Epoch() {
		w.mu.Unlock()
		return // stale update
	}
	w.placement = p
	jobs := w.jobs
	w.mu.Unlock()

	// Dependency locations pointing at dead workers are now unreachable;
	// put the affected tasks back to waiting (the driver re-runs the lost
	// map tasks).
	w.ls.InvalidateHolders(p.Contains)

	// Drop state partitions this worker no longer owns so stale state is
	// never checkpointed over the new owner's.
	w.states.Retain(func(k checkpoint.StateKey) bool {
		if _, ok := jobs[k.Job]; !ok {
			return true
		}
		return p.Assign(k.Stage, k.Partition) == w.id
	})
}

func (w *Worker) onTakeCheckpoint(m core.TakeCheckpoint) {
	for _, key := range w.states.Keys() {
		if key.Job != m.Job {
			continue
		}
		span := w.cfg.Tracer.Begin("checkpoint.capture", 0)
		span.SetNode(string(w.id))
		span.SetTask(int64(m.UpTo), key.Stage, key.Partition, 0)
		snap, ok := w.states.Snapshot(key, m.UpTo)
		span.End()
		if !ok {
			continue // partition lags; driver's replay covers it
		}
		w.send(w.driver, core.CheckpointData{
			Job:       key.Job,
			Stage:     key.Stage,
			Partition: key.Partition,
			UpTo:      core.BatchID(snap.Batch),
			State:     snap.Encode(),
		})
	}
}

func (w *Worker) onRestoreState(m core.RestoreState) {
	key := checkpoint.StateKey{Job: m.Job, Stage: m.Stage, Partition: m.Partition}
	var snap *checkpoint.Snapshot
	if len(m.State) > 0 {
		var err error
		snap, err = checkpoint.DecodeSnapshot(key, m.State)
		if err != nil {
			w.log.Warn("corrupt restore", "stage", key.Stage, "part", key.Partition, "err", err)
			return
		}
	} else {
		// No checkpoint existed yet: start the partition fresh from the
		// given batch watermark.
		snap = &checkpoint.Snapshot{Key: key, Batch: int64(m.UpTo), Windows: map[int64]map[uint64]int64{}}
	}
	// Restore refuses snapshots the partition already progressed past
	// (duplicated or re-sent restores arriving late); that is the correct
	// outcome, not an error.
	w.states.Restore(snap)
}

func (w *Worker) slotLoop() {
	defer w.wg.Done()
	sc := newSlotScratch(w.store)
	for {
		select {
		case <-w.stop:
			return
		case rt := <-w.ls.Runnable():
			w.runTask(rt, sc)
			sc.release()
		}
	}
}

// slotScratch is the memory one executor slot reuses from task to task, so
// that a micro-batch crosses the shuffle without per-record allocation. The
// slot goroutine owns it outright — no pool, no lock — and everything in it
// is dead the moment a task returns: nothing a task hands to a NarrowOp, a
// SinkFunc, the block store or the state store may alias it afterwards.
// (Build with -tags poisonscratch and release scribbles over all of it, which
// turns a violation into a test failure.)
type slotScratch struct {
	// Source side: the records and payload arena a source task renders its
	// batch into. Every draw starts from empty, so release leaves it be.
	source data.SourceScratch
	// Map side: the partition permutation of the task's output, and the
	// writer holding the encode/compress buffers and the combine table.
	index  data.PartitionIndex
	blocks *shuffle.BlockWriter
	// Reduce side: the task's input blocks as stored or fetched, the
	// decompressed bodies of the compressed ones, the validated views over
	// both, and the table a windowed fold aggregates them in.
	in      []shuffle.Block
	inflate []byte
	batches []data.Batch
	agg     shuffle.AggTable
}

func newSlotScratch(store *shuffle.Store) *slotScratch {
	return &slotScratch{blocks: shuffle.NewBlockWriter(store)}
}

// release ends a task's use of the scratch: input blocks are unpinned (they
// belong to the block store or the fetch response, not to the slot).
func (sc *slotScratch) release() {
	clear(sc.in)
	clear(sc.batches)
	sc.in, sc.batches, sc.inflate = sc.in[:0], sc.batches[:0], sc.inflate[:0]
	sc.poison()
}

// open validates every input block of the task, decompressing the
// compressed ones into the slot's inflate buffer, and returns the views. It
// fails on the first corrupt block — one with bytes after its batch
// included — before the task has touched any state.
func (sc *slotScratch) open(id core.TaskID) ([]data.Batch, error) {
	for i := range sc.in {
		b, err := data.OpenBatch(sc.in[i].Data, &sc.inflate)
		if err == nil && b.Size() != len(sc.in[i].Data) {
			err = fmt.Errorf("%d trailing byte(s) after the batch", len(sc.in[i].Data)-b.Size())
		}
		if err != nil {
			return nil, fmt.Errorf("engine: task %v: block %+v: %w", id, sc.in[i].ID, err)
		}
		sc.batches = append(sc.batches, b)
	}
	return sc.batches, nil
}

// errJobUnknown and errStateBehind are retryable preconditions, not task
// bugs: the worker is missing a control message (SubmitJob / RestoreState)
// that the driver can re-deliver. They are flagged in TaskStatus so the
// driver heals the cause instead of burning task attempts — the difference
// matters only on lossy networks, which is exactly what the chaos harness
// injects.
var (
	errJobUnknown  = errors.New("job not submitted")
	errStateBehind = errors.New("partition state behind restore floor")
)

// runTask executes one task end to end and reports status to the driver.
// Attempts killed by first-result-wins commit are dropped silently: before
// execution if the kill already landed, or by suppressing the status report
// if it landed while the loser was running.
//
// When the task's group was sampled (TraceSpan != 0), the worker records
// the task's lifecycle: a task span parented under the driver's scheduling
// span, with pre-schedule (ready → start, the time pre-scheduling hides),
// fetch, and execute children. The task span's ID travels back on the
// status report so the driver's commit span completes the chain.
func (w *Worker) runTask(rt core.RunnableTask, sc *slotScratch) {
	ta := core.TaskAttempt{ID: rt.Desc.ID, Attempt: rt.Desc.Attempt}
	if w.takeKill(ta) {
		w.killedCnt.Inc()
		return
	}
	var tr *trace.Tracer
	if rt.Desc.TraceSpan != 0 {
		tr = w.cfg.Tracer
	}
	id := rt.Desc.ID
	tspan := tr.BeginAt("task", trace.SpanID(rt.Desc.TraceSpan), rt.ReadyAt)
	tspan.SetNode(string(w.id))
	tspan.SetTask(int64(id.Batch), id.Stage, id.Partition, rt.Desc.Attempt)
	pspan := tr.BeginAt("task.preschedule", tspan.ID(), rt.ReadyAt)
	pspan.SetNode(string(w.id))
	pspan.SetTask(int64(id.Batch), id.Stage, id.Partition, rt.Desc.Attempt)
	pspan.End()
	queued := time.Since(rt.ReadyAt)
	start := time.Now()
	sizes, err := w.execute(rt, sc, tr, tspan.ID())
	w.applySlowdown(start)
	if w.takeKill(ta) {
		w.killedCnt.Inc()
		return
	}
	w.mRunMS.Observe(time.Since(start))
	if err == nil {
		w.mTasksOK.Inc()
	} else {
		w.mTasksFailed.Inc()
		w.log.Info("task failed", "batch", int64(id.Batch), "stage", id.Stage,
			"part", id.Partition, "attempt", rt.Desc.Attempt, "err", err)
	}
	status := core.TaskStatus{
		ID:          rt.Desc.ID,
		Worker:      w.id,
		Attempt:     rt.Desc.Attempt,
		OK:          err == nil,
		OutputSizes: sizes,
		RunNanos:    int64(time.Since(start)),
		QueueNanos:  int64(queued),
		TraceSpan:   uint64(tspan.End()),
	}
	if err != nil {
		status.Err = err.Error()
		status.NeedsJob = errors.Is(err, errJobUnknown)
		status.NeedsState = errors.Is(err, errStateBehind)
	}
	w.send(w.driver, status)
}

// applySlowdown stretches the task's service time by the configured (or
// fault-injected) multiplier: a factor-m slow machine takes m× as long to
// do the same work, while its heartbeats and control handling stay prompt —
// the straggler failure mode, as opposed to the crash failure mode.
func (w *Worker) applySlowdown(start time.Time) {
	m := w.cfg.Slowdown
	if ss, ok := w.net.(rpc.ServiceSlower); ok {
		if f := ss.ServiceMultiplier(w.id); f > m {
			m = f
		}
	}
	if m <= 1 {
		return
	}
	extra := time.Duration(float64(time.Since(start)) * (m - 1))
	if extra <= 0 {
		return
	}
	t := time.NewTimer(extra)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.stop:
	}
}

func (w *Worker) execute(rt core.RunnableTask, sc *slotScratch, tr *trace.Tracer, parent trace.SpanID) ([]int64, error) {
	w.mu.Lock()
	ji := w.jobs[rt.Desc.Job]
	placement := w.placement
	w.mu.Unlock()
	if ji == nil {
		return nil, fmt.Errorf("engine: %w: job %q on %s", errJobUnknown, rt.Desc.Job, w.id)
	}
	id := rt.Desc.ID
	if id.Stage < 0 || id.Stage >= len(ji.job.Stages) {
		return nil, fmt.Errorf("engine: task %v references stage out of range", id)
	}
	stage := &ji.job.Stages[id.Stage]

	// A task for a recovered partition must not apply before the partition's
	// restore landed: folding its batch into empty state would let the late
	// restore erase the batch's contribution. Fail fast and let the driver
	// re-deliver the restore.
	if rt.Desc.MinState > 0 && stage.IsTerminal() && stage.Window != nil {
		key := checkpoint.StateKey{Job: ji.name, Stage: id.Stage, Partition: id.Partition}
		if at := w.states.AppliedThrough(key); at < rt.Desc.MinState-1 {
			return nil, fmt.Errorf("engine: task %v: %w (applied %d, need %d)",
				id, errStateBehind, at, rt.Desc.MinState-1)
		}
	}

	var recs []data.Record
	if stage.IsSource() {
		recs = stage.Source(dag.BatchInfo{
			Batch:     int64(id.Batch),
			Partition: id.Partition,
			Start:     ji.closeNanos(id.Batch - 1),
			End:       ji.closeNanos(id.Batch),
			Scratch:   &sc.source,
		})
	} else {
		// task.fetch covers dependency gathering — local reads plus the
		// pipelined remote fetches — i.e. the shuffle block wait. The blocks
		// stay encoded; reading them is part of executing the task.
		fspan := tr.Begin("task.fetch", parent)
		fspan.SetNode(string(w.id))
		fspan.SetTask(int64(id.Batch), id.Stage, id.Partition, rt.Desc.Attempt)
		err := w.gatherInputs(rt, sc)
		fspan.End()
		if err != nil {
			return nil, err
		}
	}
	espan := tr.Begin("task.execute", parent)
	espan.SetNode(string(w.id))
	espan.SetTask(int64(id.Batch), id.Stage, id.Partition, rt.Desc.Attempt)
	defer espan.End()

	if !stage.IsSource() {
		batches, err := sc.open(id)
		if err != nil {
			return nil, err
		}
		// The plan's shape decides how the input is read. A windowed
		// terminal stage with no narrow ops only ever folds its input into
		// window state, so it folds straight off the encoded blocks. Any
		// other consumer takes records: one slice, sized from the block
		// headers, which the task then owns.
		if stage.IsTerminal() && stage.Window != nil && len(stage.Ops) == 0 {
			key := checkpoint.StateKey{Job: ji.name, Stage: id.Stage, Partition: id.Partition}
			emitted, _ := w.states.ApplyBlocks(key, id.Batch, batches, stage.Reduce, *stage.Window, ji.closeNanos, &sc.agg)
			w.sink(stage, id, emitted)
			return nil, nil
		}
		total := 0
		for i := range batches {
			total += batches[i].Len()
		}
		recs = make([]data.Record, 0, total)
		for i := range batches {
			recs = batches[i].AppendTo(recs)
		}
	}
	recs = stage.ApplyOps(recs)

	if stage.Shuffle != nil {
		return w.writeShuffleOutput(ji, stage, id, recs, sc, rt.Desc.NotifyDownstream, placement)
	}
	w.runTerminal(ji, stage, id, recs)
	return nil, nil
}

// blockOf names the block map output d wrote for reduce partition r.
func blockOf(d core.Dep, r int) shuffle.BlockID {
	return shuffle.BlockID{
		Job:             d.Job,
		Batch:           int64(d.Batch),
		Stage:           d.Stage,
		MapPartition:    d.MapPartition,
		ReducePartition: r,
	}
}

// gatherInputs collects every dependency block of the task, still encoded,
// into sc.in. Every block is looked up in the local store first: it holds
// the blocks this worker produced and the small blocks pushed to it inside
// DataReady. Only the misses are fetched, pipelined across holders — all
// remote fetches are issued concurrently (Fetcher.FetchAll) instead of
// paying one network round trip per holder in sequence. A miss whose
// holder is this worker is an error: there is nobody to fetch it from.
func (w *Worker) gatherInputs(rt core.RunnableTask, sc *slotScratch) error {
	id := rt.Desc.ID
	var remote map[rpc.NodeID][]shuffle.BlockID
	for _, d := range rt.Desc.Deps {
		holder, ok := rt.Locations[d]
		if !ok {
			return fmt.Errorf("engine: task %v activated without location for %+v", id, d)
		}
		blk := blockOf(d, id.Partition)
		if b, ok := w.store.GetRaw(blk); ok {
			sc.in = append(sc.in, shuffle.Block{ID: blk, Data: b})
			continue
		}
		if holder == w.id {
			return fmt.Errorf("engine: task %v: local block %+v missing", id, blk)
		}
		if remote == nil {
			remote = make(map[rpc.NodeID][]shuffle.BlockID)
		}
		remote[holder] = append(remote[holder], blk)
	}
	if len(remote) > 0 {
		fetched, err := w.fetcher.FetchAll(remote, w.cfg.FetchTimeout)
		if err != nil {
			return fmt.Errorf("engine: task %v: %w", id, err)
		}
		sc.in = append(sc.in, fetched...)
	}
	return nil
}

// writeShuffleOutput partitions (and optionally combines) a map task's
// output, stores the blocks locally, and — under pre-scheduling — pushes
// DataReady notifications straight to the downstream workers. The records
// are never copied apart: each reducer's block is encoded (or combined)
// straight from recs through the slot's partition index.
func (w *Worker) writeShuffleOutput(ji *jobInfo, stage *dag.Stage, id core.TaskID, recs []data.Record, sc *slotScratch, notify bool, placement core.Placement) ([]int64, error) {
	spec := stage.Shuffle
	sizes := make([]int64, spec.NumReducers)
	var bucket shuffle.TimeBucket
	if spec.Combine {
		bucket = w.combineBucket(ji, stage)
	}
	put := func(r int, idx []uint32) {
		blk := shuffle.BlockID{
			Job:             ji.name,
			Batch:           int64(id.Batch),
			Stage:           id.Stage,
			MapPartition:    id.Partition,
			ReducePartition: r,
		}
		if spec.Combine {
			sizes[r] = int64(sc.blocks.PutCombined(blk, recs, idx, spec.CombineFunc, bucket))
		} else {
			sizes[r] = int64(sc.blocks.Put(blk, recs, idx))
		}
	}

	if st := spec.Structure; st != nil {
		// Known communication structure (§3.6, treeReduce): the whole
		// (combined) output goes to a single consumer partition.
		target := st.Consumer(id.Partition)
		put(target, nil)
		if notify {
			w.notifyConsumers(ji, id, placement, sizes[target], func(child, r int) bool {
				return r == target
			})
		}
		return sizes, nil
	}

	sc.index.Build(recs, data.NewHashPartitioner(spec.NumReducers))
	var total int64
	for r := range sizes {
		put(r, sc.index.Part(r))
		total += sizes[r]
	}
	if notify {
		w.notifyConsumers(ji, id, placement, total, func(int, int) bool { return true })
	}
	return sizes, nil
}

// notifyConsumers pushes DataReady notifications to the owners of the
// consumer partitions selected by the filter (all partitions for an
// all-to-all shuffle, one for a structured shuffle). A remote owner's
// notification carries the output's small blocks for the partitions it
// owns; it pulls the large ones.
func (w *Worker) notifyConsumers(ji *jobInfo, id core.TaskID, placement core.Placement, size int64, include func(child, r int) bool) {
	dep := core.Dep{Job: ji.name, Batch: id.Batch, Stage: id.Stage, MapPartition: id.Partition}
	// No membership yet: the MembershipUpdate broadcast was lost. The output
	// is written and the driver learns the holder from the status report, so
	// skipping the push is safe — consumers are reactivated by the driver's
	// stall resend with known locations, and the driver re-broadcasts
	// membership on the same paths that re-deliver lost SubmitJobs.
	if placement.NumWorkers() == 0 {
		return
	}
	// One notification per consumer worker, in first-seen order; blocks[i]
	// holds what owners[i]'s carries. A map task has a handful of consumer
	// workers, so both lists start on the stack.
	var ownerBuf [4]rpc.NodeID
	var blockBuf [4][]core.ReadyBlock
	owners, blocks := ownerBuf[:0], blockBuf[:0]
	for _, child := range ji.job.Children(id.Stage) {
		n := ji.job.Stages[child].NumPartitions
		for r := 0; r < n; r++ {
			if !include(child, r) {
				continue
			}
			owner := placement.Assign(child, r)
			i := slices.Index(owners, owner)
			if i < 0 {
				i = len(owners)
				owners = append(owners, owner)
				blocks = append(blocks, nil)
			}
			// Two child stages of one shuffle read the same block r; it is
			// carried once.
			if owner == w.id || slices.ContainsFunc(blocks[i], func(b core.ReadyBlock) bool { return b.Partition == r }) {
				continue
			}
			if b, ok := w.store.GetRaw(blockOf(dep, r)); ok && len(b) < shuffle.SmallBlock {
				if blocks[i] == nil {
					blocks[i] = make([]core.ReadyBlock, 0, n)
				}
				blocks[i] = append(blocks[i], core.ReadyBlock{Partition: r, Data: b})
			}
		}
	}
	for i, owner := range owners {
		if owner == w.id {
			w.ls.OnDataReady(dep, w.id)
			continue
		}
		w.send(owner, core.DataReady{Dep: dep, Holder: w.id, Size: size, Blocks: blocks[i]})
	}
}

// combineBucket picks the time bucketing for map-side combining. Combining
// must never merge records across a window boundary that *any* downstream
// stage will aggregate on, so the search walks transitively: an interior
// partial-aggregation stage two hops above a windowed count still buckets
// by that window.
func (w *Worker) combineBucket(ji *jobInfo, stage *dag.Stage) shuffle.TimeBucket {
	queue := ji.job.Children(stage.ID)
	seen := make(map[int]bool)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		if win := ji.job.Stages[id].Window; win != nil {
			return shuffle.WindowBucket(*win)
		}
		queue = append(queue, ji.job.Children(id)...)
	}
	return shuffle.IdentityBucket
}

// runTerminal applies a terminal-stage task that took its input as
// records: windowed state update, per-batch reduction, or raw pass-through,
// then the sink.
func (w *Worker) runTerminal(ji *jobInfo, stage *dag.Stage, id core.TaskID, recs []data.Record) {
	switch {
	case stage.Window != nil:
		key := checkpoint.StateKey{Job: ji.name, Stage: id.Stage, Partition: id.Partition}
		emitted, _ := w.states.ApplyBatch(key, id.Batch, recs, stage.Reduce, *stage.Window, ji.closeNanos)
		w.sink(stage, id, emitted)
	case stage.Reduce != nil:
		w.sink(stage, id, shuffle.Combine(recs, stage.Reduce, shuffle.IdentityBucket))
	default:
		w.sink(stage, id, recs)
	}
}

// sink hands a terminal task's output to the stage's sink, if it has one.
// A windowed task that closed no window (or was a duplicate) has nothing to
// say; per-batch stages report every batch, empty or not. Per the SinkFunc
// contract out is the sink's only until it returns.
func (w *Worker) sink(stage *dag.Stage, id core.TaskID, out []data.Record) {
	if stage.Sink == nil || (stage.Window != nil && len(out) == 0) {
		return
	}
	stage.Sink(int64(id.Batch), id.Partition, out)
	poisonRecords(out)
}
