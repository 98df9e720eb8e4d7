package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/groupsize"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

// Driver is the centralized scheduler. A single driver runs one job at a
// time (Run is blocking); it owns membership, failure detection, group
// planning, the stage barrier in BSP mode, checkpointing, and recovery.
type Driver struct {
	id   rpc.NodeID
	net  rpc.Network
	cfg  Config
	reg  *Registry
	ckpt checkpoint.StateBackend
	log  *slog.Logger
	m    driverMetrics

	// Telemetry plane: ingest mirrors heartbeat-shipped worker series into
	// the registry, history rings every series for /timeseriesz and the SLO
	// watcher, slo turns sustained ring conditions into events.
	ingest  *metricIngest
	history *metrics.History
	slo     *sloWatcher

	mu        sync.Mutex
	workers   map[rpc.NodeID]*workerState
	addrs     map[rpc.NodeID]string
	pendAdd   []rpc.NodeID
	pendRm    []rpc.NodeID
	epoch     int64
	placement core.Placement

	health *healthTracker

	statusCh chan core.TaskStatus
	failCh   chan rpc.NodeID

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type workerState struct {
	lastHeartbeat time.Time
}

// RunStats summarizes one Run for the experiment harness.
type RunStats struct {
	Mode    Mode
	Batches int
	// StartNanos is the job epoch (batch b closed at
	// StartNanos + (b+1)*Interval), needed to interpret window times.
	StartNanos int64
	Groups     []int         // group sizes actually used, in order
	Coord      time.Duration // driver coordination time (plan+serialize+send+barrier bookkeeping)
	Exec       time.Duration // time spent waiting on task execution
	Wall       time.Duration
	Failures   int // worker failures handled
	Resubmits  int // tasks re-submitted (failure or recovery)
	// SpeculationLaunched counts speculative copies launched; Won counts
	// copies that replaced their original (finished first, or survived the
	// original's worker dying); Wasted counts copies that lost, failed, or
	// died with their worker. Launched == Won + Wasted once a run drains.
	SpeculationLaunched int
	SpeculationWon      int
	SpeculationWasted   int
	// SpeculationKilled counts KillTask messages sent to losing attempts.
	SpeculationKilled int
	TaskRun           *metrics.Histogram
	TaskQueue         *metrics.Histogram
	TunerTrace        []groupsize.Decision
	// Health is the final per-worker health snapshot.
	Health map[rpc.NodeID]WorkerHealthInfo
}

// driverMetrics caches the driver's registry instruments so hot paths do
// not rebuild series keys per event. All lookups are nil-registry safe.
type driverMetrics struct {
	groups      *metrics.Counter
	batches     *metrics.Counter
	commits     *metrics.Counter
	failures    *metrics.Counter
	resubmits   *metrics.Counter
	specLaunch  *metrics.Counter
	specWon     *metrics.Counter
	specWasted  *metrics.Counter
	specKilled  *metrics.Counter
	checkpoints *metrics.Counter
	stalls      *metrics.Counter
	groupSize   *metrics.Gauge
	taskRunMs   *metrics.Histogram
	taskQueueMs *metrics.Histogram
}

func newDriverMetrics(r *metrics.Registry) driverMetrics {
	return driverMetrics{
		groups:      r.Counter("drizzle_driver_groups_total"),
		batches:     r.Counter("drizzle_driver_batches_total"),
		commits:     r.Counter("drizzle_driver_tasks_committed_total"),
		failures:    r.Counter("drizzle_driver_worker_failures_total"),
		resubmits:   r.Counter("drizzle_driver_task_resubmits_total"),
		specLaunch:  r.Counter("drizzle_driver_speculative_launched_total"),
		specWon:     r.Counter("drizzle_driver_speculative_won_total"),
		specWasted:  r.Counter("drizzle_driver_speculative_wasted_total"),
		specKilled:  r.Counter("drizzle_driver_speculative_killed_total"),
		checkpoints: r.Counter("drizzle_driver_checkpoints_stored_total"),
		stalls:      r.Counter("drizzle_driver_stall_resends_total"),
		groupSize:   r.Gauge("drizzle_driver_group_size"),
		taskRunMs:   r.Histogram("drizzle_driver_task_run_ms"),
		taskQueueMs: r.Histogram("drizzle_driver_task_queue_ms"),
	}
}

// statusQueueLen bounds the task reports queued between the transport and
// the driver's run loop by the rule in DESIGN.md § "Bounded inbound
// delivery": what one group can put in flight × 2, with headroom
// (sched-tiny's 240 tasks per group is the largest on the benchmark). It is
// not sized never to fill — every slot is a pointer-bearing core.TaskStatus
// that each GC cycle scans — and a full queue blocks the sender (handle)
// instead of dropping a report.
const statusQueueLen = 1 << 12

// NewDriver constructs a driver; call Start to attach it to the network.
// ckptStore may be nil, in which case an in-memory store is used.
func NewDriver(id rpc.NodeID, net rpc.Network, reg *Registry, cfg Config, ckptStore checkpoint.StateBackend) *Driver {
	if ckptStore == nil {
		ckptStore = checkpoint.NewMemStore()
	}
	cfg = cfg.withDefaults()
	history := metrics.NewHistory(cfg.Metrics)
	return &Driver{
		id:       id,
		net:      net,
		cfg:      cfg,
		reg:      reg,
		ckpt:     ckptStore,
		log:      obs.Component(cfg.Logger, "driver").With("node", string(id)),
		m:        newDriverMetrics(cfg.Metrics),
		ingest:   newMetricIngest(cfg.Metrics),
		history:  history,
		slo:      newSLOWatcher(cfg, cfg.Metrics, history, cfg.Logger),
		workers:  make(map[rpc.NodeID]*workerState),
		addrs:    make(map[rpc.NodeID]string),
		health:   newHealthTracker(cfg),
		statusCh: make(chan core.TaskStatus, statusQueueLen),
		failCh:   make(chan rpc.NodeID, 64),
		stop:     make(chan struct{}),
	}
}

// History exposes the driver's time-series ring (the /timeseriesz source).
func (d *Driver) History() *metrics.History { return d.history }

// ID returns the driver's node id.
func (d *Driver) ID() rpc.NodeID { return d.id }

// Start registers the driver on the network and launches the failure
// monitor.
func (d *Driver) Start() error {
	if err := d.net.Register(d.id, d.handle); err != nil {
		return fmt.Errorf("engine: driver: %w", err)
	}
	if d.cfg.WAL != nil {
		// Cold-start recovery, step 1: adopt the recorded membership epoch
		// (admitPending bumps past it, so workers holding the old epoch
		// never discard the new placement as stale) and queue the recorded
		// workers for re-admission. Workers that died with the old driver
		// simply never heartbeat and are swept by the monitor.
		st := d.cfg.WAL.State()
		d.mu.Lock()
		if st.Epoch > d.epoch {
			d.epoch = st.Epoch
		}
		d.mu.Unlock()
		for id, addr := range st.Workers {
			d.AddWorkerAddr(id, addr)
		}
	}
	d.wg.Add(1)
	go d.monitor()
	d.history.Start(d.cfg.telemetryInterval())
	return nil
}

// Stop halts the driver.
func (d *Driver) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
	d.history.Stop()
}

// AddWorker admits a worker. Before a run it joins immediately; during a
// run it joins at the next group boundary (§3.3, elasticity).
func (d *Driver) AddWorker(id rpc.NodeID) {
	d.AddWorkerAddr(id, "")
}

// AddWorkerAddr admits a worker and records its transport address, which
// is distributed to peers in membership updates (needed on TCP networks).
func (d *Driver) AddWorkerAddr(id rpc.NodeID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if addr != "" {
		d.addrs[id] = addr
		if a, ok := d.net.(rpc.Announcer); ok {
			a.Announce(id, addr)
		}
	}
	if _, ok := d.workers[id]; ok {
		return
	}
	for _, p := range d.pendAdd {
		if p == id {
			return // re-registration retries must not queue duplicates
		}
	}
	d.pendAdd = append(d.pendAdd, id)
}

// membershipUpdate builds the broadcast for a placement, including the
// address table for TCP deployments.
func (d *Driver) membershipUpdate(p core.Placement) core.MembershipUpdate {
	m := core.MembershipUpdate{Epoch: p.Epoch(), Workers: p.Workers(), Weights: p.Weights()}
	d.mu.Lock()
	if len(d.addrs) > 0 {
		m.Addrs = make(map[rpc.NodeID]string, len(d.addrs))
		for id, a := range d.addrs {
			m.Addrs[id] = a
		}
	}
	d.mu.Unlock()
	return m
}

// RemoveWorker gracefully decommissions a worker at the next group
// boundary. Its state partitions migrate via checkpoint/restore.
func (d *Driver) RemoveWorker(id rpc.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pendRm = append(d.pendRm, id)
}

// LiveWorkers returns the current live worker set.
func (d *Driver) LiveWorkers() []rpc.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveLocked()
}

// membershipTableLocked snapshots the live worker set with advertised
// addresses for WAL membership records (callers hold d.mu).
func (d *Driver) membershipTableLocked() map[rpc.NodeID]string {
	out := make(map[rpc.NodeID]string, len(d.workers))
	for id := range d.workers {
		out[id] = d.addrs[id]
	}
	return out
}

func (d *Driver) liveLocked() []rpc.NodeID {
	var out []rpc.NodeID
	for id := range d.workers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Driver) handle(from rpc.NodeID, msg any) {
	switch m := msg.(type) {
	case core.Heartbeat:
		now := time.Now()
		d.mu.Lock()
		if ws, ok := d.workers[m.Worker]; ok {
			ws.lastHeartbeat = now
		}
		d.mu.Unlock()
		d.ingest.apply(m, now)
	case core.RegisterWorker:
		// Idempotent: AddWorkerAddr ignores workers already alive or
		// pending. This is how a restarted driver relearns its cluster —
		// workers re-register when the driver goes silent on them.
		d.AddWorkerAddr(m.Worker, m.Addr)
	case core.TaskStatus:
		select {
		case d.statusCh <- m:
		case <-d.stop:
		}
	case core.CheckpointData:
		span := d.cfg.Tracer.Begin("checkpoint.store", 0)
		span.SetNode(string(d.id))
		span.SetTask(int64(m.UpTo), m.Stage, m.Partition, 0)
		key := checkpoint.StateKey{Job: m.Job, Stage: m.Stage, Partition: m.Partition}
		snap, err := checkpoint.DecodeSnapshot(key, m.State)
		if err != nil {
			d.log.Warn("bad checkpoint", "from", string(from), "stage", m.Stage, "part", m.Partition, "err", err)
			return
		}
		if err := d.ckpt.Put(snap); err != nil {
			d.log.Warn("store checkpoint failed", "stage", m.Stage, "part", m.Partition, "err", err)
		} else {
			d.m.checkpoints.Inc()
		}
		span.End()
	default:
		d.log.Warn("unexpected message", "type", fmt.Sprintf("%T", msg), "from", string(from))
	}
}

// monitor watches heartbeats and posts failure events.
func (d *Driver) monitor() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case now := <-t.C:
			d.mu.Lock()
			var dead []rpc.NodeID
			for id, ws := range d.workers {
				if !ws.lastHeartbeat.IsZero() && now.Sub(ws.lastHeartbeat) > d.cfg.HeartbeatTimeout {
					dead = append(dead, id)
				}
			}
			d.mu.Unlock()
			for _, id := range dead {
				select {
				case d.failCh <- id:
				default:
				}
			}
			if n := d.ingest.sweep(now, d.cfg.metricEvictAfter()); n > 0 {
				d.log.Info("evicted departed workers' telemetry", "series", n)
			}
			d.slo.evaluate(now)
		}
	}
}

func (d *Driver) broadcast(msg any) {
	for _, w := range d.LiveWorkers() {
		if err := d.net.Send(d.id, w, msg); err != nil {
			d.log.Warn("broadcast send failed", "to", string(w), "err", err)
		}
	}
}

// admitPending applies queued membership changes, folds current worker
// health into placement weights, and (re)broadcasts membership. A placement
// is rebuilt — with a fresh epoch, since workers discard stale epochs — when
// the live set changed *or* the health-derived weight of any live worker
// changed; both re-route partitions and need the same broadcast. Returns the
// placement and whether it changed. Health weighting only applies when
// Speculation is enabled, so non-speculative runs place identically to
// before the adaptability layer existed.
func (d *Driver) admitPending(jobName string, startNanos int64) (core.Placement, bool, []rpc.NodeID) {
	d.mu.Lock()
	added := d.pendAdd
	removed := d.pendRm
	d.pendAdd, d.pendRm = nil, nil
	for _, id := range added {
		d.workers[id] = &workerState{lastHeartbeat: time.Now()}
	}
	for _, id := range removed {
		delete(d.workers, id)
	}
	for _, id := range added {
		d.health.Ensure(id)
	}
	for _, id := range removed {
		d.health.Remove(id)
	}
	var weights map[rpc.NodeID]float64
	if d.cfg.Speculation {
		weights = d.health.Weights(time.Now(), d.liveLocked())
	}
	changed := len(added)+len(removed) > 0
	if !changed && d.cfg.Speculation && d.placement.NumWorkers() > 0 &&
		weightsDiffer(d.placement, weights) {
		changed = true
	}
	if changed || d.placement.NumWorkers() == 0 {
		d.epoch++
		d.placement = core.NewWeightedPlacement(d.epoch, d.liveLocked(), weights)
	}
	p := d.placement
	var walEpoch int64
	var walWorkers map[rpc.NodeID]string
	if changed && d.cfg.WAL != nil {
		walEpoch = d.epoch
		walWorkers = d.membershipTableLocked()
	}
	d.mu.Unlock()
	if walWorkers != nil {
		if err := d.cfg.WAL.AppendMembership(walEpoch, walWorkers); err != nil {
			d.log.Warn("wal membership append failed", "err", err)
		}
	}

	// New workers need the job before membership makes them targets.
	for _, id := range added {
		if jobName != "" {
			_ = d.net.Send(d.id, id, core.SubmitJob{Job: jobName, StartNanos: startNanos})
		}
	}
	if changed {
		d.broadcast(d.membershipUpdate(p))
	}
	return p, changed, added
}

// Run executes numBatches micro-batches of the named job and returns
// aggregate statistics. It blocks until the job completes or fails.
func (d *Driver) Run(jobName string, numBatches int) (*RunStats, error) {
	job, ok := d.reg.Lookup(jobName)
	if !ok {
		return nil, fmt.Errorf("engine: job %q not registered", jobName)
	}
	if numBatches <= 0 {
		return nil, fmt.Errorf("engine: numBatches must be positive")
	}

	// Cold-start recovery, step 2: a WAL holding an unfinished run of this
	// job means we are a restarted driver. Resume the *same* stream — the
	// recorded StartNanos, not a fresh aligned one: shifting the epoch
	// would move every window boundary and orphan checkpointed windows —
	// from the batch after the last durable group commit.
	startNanos := int64(0)
	resumeFrom := core.BatchID(0)
	resuming := false
	if d.cfg.WAL != nil {
		if st := d.cfg.WAL.State(); st.HasJob && st.Job == jobName && !st.Done {
			resuming = true
			startNanos = st.StartNanos
			resumeFrom = core.BatchID(st.Committed + 1)
		}
	}
	if !resuming {
		startNanos = alignedStart(job)
	}

	rs := newRunState(&core.GroupPlanner{JobName: jobName, Job: job, StartNanos: startNanos}, numBatches, d.cfg.Mode)

	placement, _, _ := d.admitPending(jobName, rs.planner.StartNanos)
	if placement.NumWorkers() == 0 && d.cfg.WAL != nil {
		// A recovering driver starts with zero live workers by definition;
		// give re-registration (driver-silence detection on the workers)
		// a bounded window before declaring the cluster empty.
		deadline := time.Now().Add(d.cfg.RecoverWait)
		for placement.NumWorkers() == 0 && time.Now().Before(deadline) {
			select {
			case <-d.stop:
				return nil, errors.New("engine: driver stopped")
			case <-time.After(d.cfg.HeartbeatInterval / 2):
			}
			placement, _, _ = d.admitPending(jobName, rs.planner.StartNanos)
		}
	}
	if placement.NumWorkers() == 0 {
		return nil, errors.New("engine: no live workers")
	}
	rs.placement = placement
	d.broadcast(core.SubmitJob{Job: jobName, StartNanos: rs.planner.StartNanos})
	d.broadcast(d.membershipUpdate(placement))

	if d.cfg.WAL != nil {
		if resuming {
			rs.ckptBatch = resumeFrom - 1
			d.tightenStall(rs)
			if err := d.seedRecovery(rs, resumeFrom); err != nil {
				return rs.stats, err
			}
		} else if err := d.cfg.WAL.AppendJobStart(jobName, rs.planner.StartNanos, numBatches); err != nil {
			return nil, fmt.Errorf("engine: wal job start: %w", err)
		}
	}

	var tuner *groupsize.Tuner
	groupSize := d.cfg.GroupSize
	if d.cfg.Mode == ModeBSP {
		groupSize = 1
	}
	if d.cfg.AutoTune && d.cfg.Mode == ModeDrizzle {
		cfg := d.cfg.Tuner
		if cfg.MaxGroup == 0 {
			cfg = groupsize.DefaultConfig()
		}
		var err error
		tuner, err = groupsize.New(cfg, groupSize)
		if err != nil {
			return nil, err
		}
		tuner.InstrumentMetrics(d.cfg.Metrics)
	}

	d.slo.setInterval(job.Interval)
	mLatency := d.cfg.Metrics.Gauge(latencyGaugeName)
	mBacklog := d.cfg.Metrics.Gauge(backlogGaugeName)

	wallStart := time.Now()
	groupSeq := int64(0)
	for b := resumeFrom; b < rs.numBatches; {
		if p, changed, _ := d.admitPending(jobName, rs.planner.StartNanos); changed {
			d.migrateState(rs, rs.placement, p)
			rs.placement = p
		}
		// Group boundary: re-deliver any recovery restores the network may
		// have eaten. Sent before this group's LaunchTasks so per-link FIFO
		// (when it holds) lands the state before the tasks that need it.
		d.resendRestores(rs)
		g := groupSize
		if rem := int(rs.numBatches - b); g > rem {
			g = rem
		}
		var coord, exec time.Duration
		var err error
		if d.cfg.Mode == ModeBSP {
			coord, exec, err = d.runBatchBSP(rs, b, groupSeq)
		} else {
			coord, exec, err = d.runGroupDrizzle(rs, b, g, groupSeq)
		}
		if err != nil {
			return rs.stats, err
		}
		rs.stats.Coord += coord
		rs.stats.Exec += exec
		rs.stats.Groups = append(rs.stats.Groups, g)

		// The coordination-vs-execution split, labeled by the group size
		// that produced it — the registry-backed form of the measurement
		// the AIMD tuner consumes (§3.4).
		gl := strconv.Itoa(g)
		d.m.groups.Inc()
		d.m.batches.Add(int64(g))
		d.cfg.Metrics.Counter("drizzle_driver_coord_nanos_total", "group_size", gl).Add(int64(coord))
		d.cfg.Metrics.Counter("drizzle_driver_exec_nanos_total", "group_size", gl).Add(int64(exec))
		d.m.groupSize.Set(float64(g))

		b += core.BatchID(g)
		groupSeq++
		// SLO inputs, refreshed at each group boundary: how long one batch
		// took versus the window interval, and how many wall-clock-closed
		// batches are not yet committed (the backlog the stream is behind).
		mLatency.Set(float64(coord+exec) / float64(g) / float64(time.Millisecond))
		if job.Interval > 0 {
			expected := (time.Now().UnixNano() - rs.planner.StartNanos) / int64(job.Interval)
			if max := int64(rs.numBatches); expected > max {
				expected = max
			}
			backlog := expected - int64(b)
			if backlog < 0 {
				backlog = 0
			}
			mBacklog.Set(float64(backlog))
		}
		// A committed group proves the worker status path is flowing again;
		// drop back to the configured stall interval if recovery tightened it.
		rs.stallEvery = d.cfg.StallResend

		if d.cfg.WAL != nil {
			// Off the barrier path: the commit record is queued, not
			// fsynced. Losing it costs a re-run of an already-complete
			// group after a crash, which the snapshot floors and window
			// dedup make harmless.
			if err := d.cfg.WAL.AppendGroupCommit(int64(b - 1)); err != nil {
				d.log.Warn("wal group commit append failed", "err", err)
			}
		}
		if d.cfg.CheckpointEvery > 0 && groupSeq%int64(d.cfg.CheckpointEvery) == 0 {
			d.broadcast(core.TakeCheckpoint{Job: jobName, UpTo: b - 1})
			rs.ckptBatch = b - 1
			// The checkpoint boundary is where durability is declared
			// (purgeWatermark starts trusting snapshots at or below
			// ckptBatch), so this is the one place that waits on fsync:
			// commit records queued above plus snapshots already stored.
			if d.cfg.WAL != nil {
				if err := d.cfg.WAL.Sync(); err != nil {
					d.log.Warn("wal sync failed", "err", err)
				}
			}
			if err := d.ckpt.Sync(); err != nil {
				d.log.Warn("checkpoint backend sync failed", "err", err)
			}
		}
		if tuner != nil {
			groupSize = tuner.Update(coord, exec)
			if rs.shrinkPending {
				// Adaptability event during the group (worker failure or
				// straggler): collapse to MinGroup so the next coordination
				// boundary — the next chance to re-place and re-plan —
				// arrives as soon as possible (§3.4). AIMD re-grows the
				// group once conditions normalize.
				groupSize = tuner.Shrink()
			}
		}
		rs.shrinkPending = false
	}
	if tuner != nil {
		rs.stats.TunerTrace = tuner.History()
	}
	if d.cfg.WAL != nil {
		if err := d.cfg.WAL.AppendJobDone(jobName); err != nil {
			d.log.Warn("wal job done append failed", "err", err)
		}
	}
	rs.stats.Health = d.health.Snapshot(time.Now())
	rs.stats.Wall = time.Since(wallStart)
	return rs.stats, nil
}

// seedRecovery rebuilds a resumed run's execution state: every windowed
// terminal partition gets its latest snapshot re-delivered (workers that
// survived the driver refuse snapshots they have progressed past, cold
// workers install them), and every batch between the oldest snapshot floor
// and the resume point is replayed in full — sources are deterministic
// functions of (StartNanos, batch), so the replay regenerates identical
// data and the window dedup keeps state exactly-once. The full closure is
// resubmitted (not just terminal tasks) because producers for those
// batches were never launched by *this* driver incarnation, and
// lostProducers skips never-launched producers.
func (d *Driver) seedRecovery(rs *runState, resumeFrom core.BatchID) error {
	replayFrom := resumeFrom
	for _, key := range rs.stateKeys {
		snapBatch := d.sendRestore(rs, key)
		rs.restores[key] = snapBatch
		if snapBatch+1 < replayFrom {
			replayFrom = snapBatch + 1
		}
	}
	replayFrom = max(replayFrom, 0)
	// This incarnation's table starts at the oldest batch it replays.
	rs.dropBefore(replayFrom)
	if replayFrom >= resumeFrom {
		return nil // snapshots already cover everything committed
	}
	d.log.Info("recovery replay", "from", int64(replayFrom), "to", int64(resumeFrom-1))
	rs.groupFirst, rs.groupSize = replayFrom, int(resumeFrom-replayFrom)
	job := rs.planner.Job
	var ids []core.TaskID
	for b := replayFrom; b < resumeFrom; b++ {
		for si := range job.Stages {
			for p := 0; p < job.Stages[si].NumPartitions; p++ {
				ids = append(ids, core.TaskID{Batch: b, Stage: si, Partition: p})
			}
		}
	}
	rs.stats.Resubmits += len(ids)
	d.m.resubmits.Add(int64(len(ids)))
	d.resubmit(rs, ids, time.Now())
	return d.waitTasks(rs, time.Time{})
}

// tightenStall lowers the run's stall-resend interval for the start of a
// recovered run: right after a driver restart the workers' transports are
// often still in redial backoff, so their status reports vanish into broken
// connections and only a stall resend repairs the loss. The production
// interval would dominate restart-to-first-commit latency; descriptors are
// idempotent, so the only cost of the tighter net is some duplicate work.
// Run restores the configured interval once the first group commits (a
// commit proves the status path is flowing again).
func (d *Driver) tightenStall(rs *runState) {
	rs.stallEvery = 4 * d.cfg.HeartbeatInterval
	if rs.stallEvery > d.cfg.StallResend {
		rs.stallEvery = d.cfg.StallResend
	}
}

// runState is the driver's bookkeeping for one Run.
type runState struct {
	planner    *core.GroupPlanner
	jobName    string
	numBatches core.BatchID
	placement  core.Placement
	// stateKeys lists the job's windowed terminal partitions, the ones
	// that hold state, in (stage, partition) order.
	stateKeys []checkpoint.StateKey

	// rows holds a taskRow per task of batches base through the last one
	// planned, in task order (see index); peers holds each (batch, stage)'s
	// straggler progress. base only advances, to the purge watermark, and
	// the batches below it drop off the front of both.
	rows        []taskRow
	peers       []peerStat
	base        core.BatchID
	stageOffset []int // each stage's first row within a batch
	perBatch    int   // tasks per batch
	// restores records, per terminal partition moved by recovery or
	// migration, the batch of the snapshot its new owner must restore
	// before applying later batches. The entry sets the MinState floor on
	// every subsequent task of the partition and drives restore re-delivery
	// (group boundaries, stalls, NeedsState reports), which is what keeps
	// recovery correct when RestoreState messages can be lost or reordered.
	restores  map[checkpoint.StateKey]core.BatchID
	remaining int

	groupFirst core.BatchID
	groupSize  int
	ckptBatch  core.BatchID // last batch covered by a requested checkpoint

	// durs is a ring of the last completed task durations (ms); durSeen
	// counts all completions, and durSeen%len(durs) is the write cursor.
	durs    []float64
	durSeen int
	// retryQ holds delayed resubmissions, at most one per task.
	retryQ []retryEntry
	// shrinkPending asks the Run loop to force the tuner to MinGroup at the
	// next group boundary (worker failure or straggler detected, §3.4).
	shrinkPending bool
	// stallEvery is the stall-resend interval: cfg.StallResend, or less
	// while tightenStall's net is on at the start of a recovered run.
	stallEvery time.Duration
	// The deadlines waitTasks' one timer wakes for, besides retryQ's: the
	// stall check (pushed back by every status), the next straggler scan
	// (zero with speculation off) and the end of a batch-close wait (zero
	// otherwise).
	stallAt, specAt, notBefore time.Time

	stats *RunStats
}

// newRunState builds the bookkeeping for a run of the planner's job over
// numBatches micro-batches.
func newRunState(planner *core.GroupPlanner, numBatches int, mode Mode) *runState {
	rs := &runState{
		planner:    planner,
		jobName:    planner.JobName,
		numBatches: core.BatchID(numBatches),
		restores:   make(map[checkpoint.StateKey]core.BatchID),
		ckptBatch:  -1,
		stats: &RunStats{
			Mode:       mode,
			Batches:    numBatches,
			StartNanos: planner.StartNanos,
			TaskRun:    metrics.NewHistogram(),
			TaskQueue:  metrics.NewHistogram(),
		},
	}
	for si := range planner.Job.Stages {
		rs.stageOffset = append(rs.stageOffset, rs.perBatch)
		rs.perBatch += planner.Job.Stages[si].NumPartitions
		if stage := &planner.Job.Stages[si]; stage.IsTerminal() && stage.Window != nil {
			for p := 0; p < stage.NumPartitions; p++ {
				rs.stateKeys = append(rs.stateKeys, checkpoint.StateKey{Job: planner.JobName, Stage: si, Partition: p})
			}
		}
	}
	return rs
}

// taskState is where a task stands in its run.
type taskState uint8

const (
	taskPlanned     taskState = iota // in the table, never registered or resubmitted
	taskOutstanding                  // handed to worker, not committed yet
	taskDone                         // committed
)

// taskRow is the driver's bookkeeping for one task.
type taskRow struct {
	state    taskState
	relay    bool        // a recovery task whose DataReady the driver relays
	attempts int         // failures charged against MaxTaskAttempts
	worker   rpc.NodeID  // the worker an outstanding task is assigned to
	holder   rpc.NodeID  // lineage: who holds the committed shuffle output
	launched time.Time   // when an outstanding task was handed out, for the straggler clock
	spec     specAttempt // the in-flight speculative copy, worker "" if none
	specSeq  int         // the last speculative attempt number allocated
}

// at returns a task's row, or nil for a task outside the table: below
// base, past the last batch planned, or naming no task of the job.
func (rs *runState) at(id core.TaskID) *taskRow {
	if id.Batch < rs.base || id.Batch-rs.base >= core.BatchID(rs.batches()) ||
		id.Stage < 0 || id.Stage >= len(rs.stageOffset) ||
		id.Partition < 0 || id.Partition >= rs.planner.Job.Stages[id.Stage].NumPartitions {
		return nil
	}
	return &rs.rows[rs.index(id)]
}

// row returns a task's row, extending the table through its batch. No task
// below base is addressed: nothing re-runs a batch the watermark passed.
func (rs *runState) row(id core.TaskID) *taskRow {
	rs.grow(id.Batch)
	return &rs.rows[rs.index(id)]
}

// index is a task's row: (batch − base) × perBatch + stageOffset[stage] +
// partition.
func (rs *runState) index(id core.TaskID) int {
	return int(id.Batch-rs.base)*rs.perBatch + rs.stageOffset[id.Stage] + id.Partition
}

// taskAt is the task of row i, the inverse of index.
func (rs *runState) taskAt(i int) core.TaskID {
	off := i % rs.perBatch
	s := sort.SearchInts(rs.stageOffset, off+1) - 1
	return core.TaskID{Batch: rs.base + core.BatchID(i/rs.perBatch), Stage: s, Partition: off - rs.stageOffset[s]}
}

// peer is the straggler detector's progress of a task's (batch, stage).
func (rs *runState) peer(id core.TaskID) *peerStat {
	return &rs.peers[int(id.Batch-rs.base)*len(rs.stageOffset)+id.Stage]
}

// batches is the number of batches the table holds.
func (rs *runState) batches() int { return len(rs.rows) / max(rs.perBatch, 1) }

// grow extends the table with planned rows through batch b.
func (rs *runState) grow(b core.BatchID) {
	if n := int(b-rs.base) + 1; n > rs.batches() {
		rs.rows = append(rs.rows, make([]taskRow, n*rs.perBatch-len(rs.rows))...)
		rs.peers = append(rs.peers, make([]peerStat, n*len(rs.stageOffset)-len(rs.peers))...)
	}
}

// dropBefore advances base to b; the batches below it drop off the table.
func (rs *runState) dropBefore(b core.BatchID) {
	if b <= rs.base {
		return
	}
	// Deleting shifts the rest down in place, so a run reuses one array.
	k := min(int(b-rs.base), rs.batches())
	rs.rows = slices.Delete(rs.rows, 0, k*rs.perBatch)
	rs.peers = slices.Delete(rs.peers, 0, k*len(rs.stageOffset))
	rs.base = b
}

// knownLocations lists the dependencies whose recorded holder is live: the
// locations a descriptor carries, nil for a task that reads nothing.
func (rs *runState) knownLocations(deps []core.Dep) []core.DepLocation {
	if len(deps) == 0 {
		return nil
	}
	known := make([]core.DepLocation, 0, len(deps))
	for _, dep := range deps {
		r := rs.at(core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition})
		if r != nil && rs.placement.Contains(r.holder) {
			known = append(known, core.DepLocation{Dep: dep, Node: r.holder})
		}
	}
	return known
}

// stampTraceSpans writes the scheduling span's ID into every planned
// descriptor so workers parent their task spans under it (and know the
// group was sampled). A zero span leaves descriptors untouched.
func stampTraceSpans(byWorker map[rpc.NodeID][]core.TaskDescriptor, span trace.SpanID) {
	if span == 0 {
		return
	}
	for _, descs := range byWorker {
		for i := range descs {
			descs[i].TraceSpan = uint64(span)
		}
	}
}

// runGroupDrizzle executes one scheduling group (§3.1/§3.2).
func (d *Driver) runGroupDrizzle(rs *runState, first core.BatchID, g int, seq int64) (coord, exec time.Duration, err error) {
	rs.groupFirst, rs.groupSize = first, g
	// One sampling decision covers the whole group: when tr is nil (tracing
	// off or group not sampled) every span below is a no-op, and workers see
	// TraceSpan 0.
	tr := d.cfg.Tracer.Sampled(seq)
	gspan := tr.Begin("group", 0)
	gspan.SetNode(string(d.id))
	gspan.SetTask(int64(first), 0, 0, 0)

	coordStart := time.Now()
	sspan := tr.BeginAt("group.schedule", gspan.ID(), coordStart)
	sspan.SetNode(string(d.id))
	byWorker, all := rs.planner.PlanGroup(rs.placement, first, g, seq)
	d.stampFloors(rs, byWorker, false)
	rs.register(byWorker, time.Now())
	// Decisions are made once for the first micro-batch and reused for the
	// remaining g-1 (§3.1): that reuse is what group scheduling amortizes.
	perBatch := len(all) / g
	d.chargeCosts(perBatch, len(all)-perBatch, len(byWorker))
	schedID := sspan.End()
	stampTraceSpans(byWorker, schedID)

	lspan := tr.Begin("group.launch", gspan.ID())
	lspan.SetNode(string(d.id))
	purge := d.purgeWatermark(rs)
	d.launch(byWorker, purge)
	lspan.End()
	rs.dropBefore(purge)
	coord = time.Since(coordStart)

	execStart := time.Now()
	wspan := tr.BeginAt("group.wait", gspan.ID(), execStart)
	wspan.SetNode(string(d.id))
	err = d.waitTasks(rs, time.Time{})
	wspan.End()
	exec = time.Since(execStart)
	gspan.End()
	return coord, exec, err
}

// runBatchBSP executes one micro-batch stage-by-stage with driver barriers
// (Figure 1's coordination pattern).
func (d *Driver) runBatchBSP(rs *runState, b core.BatchID, seq int64) (coord, exec time.Duration, err error) {
	rs.groupFirst, rs.groupSize = b, 1
	// The JobGenerator fires when the batch's input interval closes; a
	// worker death meanwhile is handled before the first stage is planned.
	if err := d.waitTasks(rs, time.Unix(0, rs.planner.BatchCloseNanos(b))); err != nil {
		return 0, 0, err
	}
	tr := d.cfg.Tracer.Sampled(seq)
	gspan := tr.Begin("group", 0)
	gspan.SetNode(string(d.id))
	gspan.SetTask(int64(b), 0, 0, 0)
	for si := range rs.planner.Job.Stages {
		coordStart := time.Now()
		sspan := tr.BeginAt("group.schedule", gspan.ID(), coordStart)
		sspan.SetNode(string(d.id))
		sspan.SetTask(int64(b), si, 0, 0)
		byWorker, all := rs.planner.PlanStage(rs.placement, b, si, seq)
		d.stampFloors(rs, byWorker, true)
		rs.register(byWorker, time.Now())
		d.chargeCosts(len(all), 0, len(byWorker))
		schedID := sspan.End()
		stampTraceSpans(byWorker, schedID)
		d.launch(byWorker, d.purgeWatermark(rs))
		coord += time.Since(coordStart)

		// Stage barrier: wait for every task of the stage before planning
		// the next stage with the collected map-output locations.
		execStart := time.Now()
		wspan := tr.BeginAt("group.wait", gspan.ID(), execStart)
		wspan.SetNode(string(d.id))
		wspan.SetTask(int64(b), si, 0, 0)
		if err := d.waitTasks(rs, time.Time{}); err != nil {
			wspan.End()
			gspan.End()
			return coord, exec, err
		}
		wspan.End()
		exec += time.Since(execStart)
	}
	gspan.End()
	rs.dropBefore(d.purgeWatermark(rs))
	return coord, exec, nil
}

// launch sends each worker its descriptors in one LaunchTasks.
func (d *Driver) launch(byWorker map[rpc.NodeID][]core.TaskDescriptor, purge core.BatchID) {
	for w, tasks := range byWorker {
		if err := d.net.Send(d.id, w, core.LaunchTasks{Tasks: tasks, PurgeBefore: purge}); err != nil {
			d.log.Warn("launch send failed", "to", string(w), "err", err)
		}
	}
}

// chargeCosts emulates driver-side scheduling CPU (see CostModel).
func (d *Driver) chargeCosts(decisions, copies, messages int) {
	if c := d.cfg.Costs.LaunchCost(decisions, copies, messages); c > 0 {
		time.Sleep(c)
	}
}

// waitTasks is the driver's one wait loop. It handles task statuses and
// worker deaths as they arrive and sleeps on one timer, set each iteration
// to rs.nextWake; when it fires, onTimer fires whatever came due. With a
// zero notBefore it returns once every registered task has completed,
// otherwise at notBefore (BSP's batch-close wait).
func (d *Driver) waitTasks(rs *runState, notBefore time.Time) error {
	if rs.stallEvery <= 0 {
		rs.stallEvery = d.cfg.StallResend
	}
	now := time.Now()
	rs.notBefore, rs.stallAt = notBefore, now.Add(rs.stallEvery)
	if d.cfg.Speculation {
		rs.specAt = now.Add(specInterval)
	}
	timer := time.NewTimer(time.Until(rs.nextWake()))
	defer timer.Stop()
	for (notBefore.IsZero() && rs.remaining > 0) || now.Before(notBefore) {
		select {
		case <-d.stop:
			return errors.New("engine: driver stopped")
		case st := <-d.statusCh:
			now = time.Now()
			if err := d.onStatus(rs, st, now); err != nil {
				return err
			}
			rs.stallAt = now.Add(rs.stallEvery)
		case w := <-d.failCh:
			now = time.Now()
			d.onWorkerFailure(rs, w, now)
		case <-timer.C:
			now = time.Now()
			d.onTimer(rs, now)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(rs.nextWake())) // non-positive durations fire at once
	}
	return nil
}

// migrateState moves terminal-partition state when placement changes at a
// group boundary (elasticity): checkpoint synchronously, then restore moved
// partitions on their new owners.
func (d *Driver) migrateState(rs *runState, oldP, newP core.Placement) {
	upTo := rs.groupFirst + core.BatchID(rs.groupSize) - 1
	if rs.groupSize == 0 {
		upTo = -1
	}
	var moved []checkpoint.StateKey
	for _, key := range rs.stateKeys {
		if oldP.NumWorkers() > 0 && oldP.Assign(key.Stage, key.Partition) != newP.Assign(key.Stage, key.Partition) {
			moved = append(moved, key)
		}
	}
	if len(moved) == 0 {
		return
	}
	if upTo >= 0 {
		// Ask the *previous* owners for fresh snapshots; they still hold
		// the state (MembershipUpdate-triggered Retain runs on receipt,
		// but TakeCheckpoint was sent first, and per-sender FIFO holds).
		for _, w := range oldP.Workers() {
			_ = d.net.Send(d.id, w, core.TakeCheckpoint{Job: rs.jobName, UpTo: upTo})
		}
		d.awaitCheckpoints(moved, upTo, 2*time.Second)
		rs.ckptBatch = upTo
	}
	for _, key := range moved {
		// Every moved partition restores and replays under newP, even when
		// a failure during an earlier partition's replay moved rs.placement.
		rs.placement = newP
		// Replay anything after the snapshot sent: the floor is that
		// snapshot's batch, not whatever the store holds a moment later.
		snapBatch := d.sendRestore(rs, key)
		rs.restores[key] = snapBatch
		var ids []core.TaskID
		for b := max(snapBatch+1, rs.base); b <= upTo; b++ {
			ids = append(ids, core.TaskID{Batch: b, Stage: key.Stage, Partition: key.Partition})
		}
		if len(ids) > 0 {
			d.resubmit(rs, ids, time.Now())
			_ = d.waitTasks(rs, time.Time{})
		}
	}
}

// awaitCheckpoints polls the checkpoint store until every key has a
// snapshot at least as fresh as upTo, or the timeout elapses.
func (d *Driver) awaitCheckpoints(keys []checkpoint.StateKey, upTo core.BatchID, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := true
		for _, k := range keys {
			snap, ok, err := d.ckpt.Latest(k)
			if err != nil || !ok || core.BatchID(snap.Batch) < upTo {
				ready = false
				break
			}
		}
		if ready {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.log.Warn("checkpoint wait timed out; migration will replay more batches")
}

// alignedStart picks the job epoch: the next wall-clock instant aligned to
// the job's largest window, so that when the micro-batch interval divides
// the window, window boundaries coincide with batch boundaries — the
// convention Spark Streaming imposes (windows must be multiples of the
// batch interval) and the configuration that minimizes window-close
// latency. Tasks are gated on batch close times, so the (sub-window) wait
// before the first batch simply delays the start.
func alignedStart(job *dag.Job) int64 {
	now := time.Now().UnixNano()
	var align int64
	for i := range job.Stages {
		if w := job.Stages[i].Window; w != nil && int64(w.Size) > align {
			align = int64(w.Size)
		}
	}
	if align <= 0 {
		return now
	}
	return (now/align + 1) * align
}

// weightsDiffer reports whether applying the proposed weight map to the
// placement's worker set would change any worker's effective weight.
// Missing entries mean weight 1 on both sides, so a nil/uniform proposal
// matches an unweighted placement.
func weightsDiffer(p core.Placement, proposed map[rpc.NodeID]float64) bool {
	workers := p.Workers()
	lookup := func(m map[rpc.NodeID]float64, w rpc.NodeID) float64 {
		if m != nil {
			if v, ok := m[w]; ok {
				return v
			}
		}
		return 1
	}
	// A uniform proposal builds an unweighted placement (the constructor's
	// fallback), so normalize it to all-1 before comparing — otherwise an
	// all-degraded cluster would look "changed" every group and churn the
	// epoch forever.
	uniform := true
	for _, w := range workers {
		if lookup(proposed, w) != lookup(proposed, workers[0]) {
			uniform = false
			break
		}
	}
	current := p.Weights()
	for _, w := range workers {
		pw := lookup(proposed, w)
		if uniform {
			pw = 1
		}
		if lookup(current, w) != pw {
			return true
		}
	}
	return false
}
