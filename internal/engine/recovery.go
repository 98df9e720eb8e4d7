package engine

// The driver's recovery decisions (§3.3): committing task statuses,
// re-running lost lineage, restoring moved state and retrying failed tasks.
// Each is a non-blocking function of the run state, its input and the time
// it is handed; the blocking shell in driver.go reads the clock and calls
// them. TestDriverCoreHasNoClock keeps it that way.

import (
	"fmt"
	"slices"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

// retryEntry is one delayed task resubmission.
type retryEntry struct {
	id  core.TaskID
	due time.Time
}

// register records planned descriptors as outstanding on the workers they
// were planned for; now is their launch time for the straggler detector.
func (rs *runState) register(byWorker map[rpc.NodeID][]core.TaskDescriptor, now time.Time) {
	for w, descs := range byWorker {
		for _, desc := range descs {
			r := rs.row(desc.ID)
			if r.state == taskDone {
				continue
			}
			if r.state == taskPlanned {
				r.state = taskOutstanding
				rs.remaining++
			}
			r.worker = w
			if r.launched.IsZero() {
				r.launched = now
			}
		}
	}
}

// purgeWatermark returns the batch below which shuffle blocks and
// dependency bookkeeping may be dropped. ckptBatch alone is not proof of
// durability: TakeCheckpoint is fire-and-forget, so a snapshot the counter
// claims may never have landed, and recovery then replays from whatever the
// store really holds. A batch is reclaimable only once every windowed
// terminal partition has a stored snapshot covering it and no incomplete
// task still reads it.
func (d *Driver) purgeWatermark(rs *runState) core.BatchID {
	wm := rs.ckptBatch + 1
	if wm <= 0 {
		return 0
	}
	for _, key := range rs.stateKeys {
		if wm <= 0 {
			break
		}
		covered := core.BatchID(0)
		// Only a *synced* snapshot counts: an accepted-but-unfsynced one
		// would vanish with a crash, and the purged lineage with it.
		if b, ok := d.ckpt.DurableBatch(key); ok {
			covered = core.BatchID(b) + 1
		}
		if covered < wm {
			wm = covered
		}
	}
	// Rows are in batch order: the first outstanding one is the oldest.
	for i := range rs.rows {
		if rs.rows[i].state == taskOutstanding {
			return min(wm, rs.base+core.BatchID(i/rs.perBatch))
		}
	}
	return wm
}

// sendRestore (re)delivers the freshest snapshot of a terminal partition to
// its current owner and returns the snapshot's batch, -1 if there is none.
// Safe to repeat: the worker refuses snapshots its partition already
// progressed past.
func (d *Driver) sendRestore(rs *runState, key checkpoint.StateKey) core.BatchID {
	msg := core.RestoreState{Job: key.Job, Stage: key.Stage, Partition: key.Partition, UpTo: -1}
	if snap, ok, err := d.ckpt.Latest(key); err == nil && ok {
		msg.UpTo = core.BatchID(snap.Batch)
		msg.State = snap.Encode()
	}
	if rs.placement.NumWorkers() > 0 {
		_ = d.net.Send(d.id, rs.placement.Assign(key.Stage, key.Partition), msg)
	}
	return msg.UpTo
}

// resendRestores re-delivers every tracked restore — the safety net for
// RestoreState messages lost by the network, invoked at group boundaries
// and on stalls. Restores are small (one partition's window state) and the
// worker-side guard makes repeats free.
func (d *Driver) resendRestores(rs *runState) {
	for key := range rs.restores {
		d.sendRestore(rs, key)
	}
}

// stampFloors sets the MinState floor on planned descriptors of windowed
// terminal partitions that recovery has moved, so tasks planned in later
// groups can never apply to a partition whose restore has not landed yet.
// With locations (BSP's stage plans) it also stamps every dependency
// location the stage barrier collected.
func (d *Driver) stampFloors(rs *runState, byWorker map[rpc.NodeID][]core.TaskDescriptor, locations bool) {
	for _, descs := range byWorker {
		for i := range descs {
			descs[i].MinState = rs.minState(descs[i].ID)
			if locations {
				descs[i].KnownLocations = rs.knownLocations(descs[i].Deps)
			}
		}
	}
}

// minState is a task's MinState floor: one past the snapshot its windowed
// terminal partition must have restored after recovery moved it, else 0.
func (rs *runState) minState(id core.TaskID) core.BatchID {
	stage := &rs.planner.Job.Stages[id.Stage]
	if !stage.IsTerminal() || stage.Window == nil {
		return 0
	}
	key := checkpoint.StateKey{Job: rs.jobName, Stage: id.Stage, Partition: id.Partition}
	if floor, ok := rs.restores[key]; ok && floor >= 0 {
		return floor + 1
	}
	return 0
}

// nextWake is the earliest deadline the wait loop must wake for: the stall
// check, the first queued retry, the next straggler scan or the end of a
// batch-close wait. A zero deadline is not set.
func (rs *runState) nextWake() time.Time {
	var wake time.Time
	for _, t := range []time.Time{rs.stallAt, rs.specAt, rs.notBefore} {
		if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
			wake = t
		}
	}
	for _, e := range rs.retryQ {
		if wake.IsZero() || e.due.Before(wake) {
			wake = e.due
		}
	}
	return wake
}

// onTimer fires every deadline of nextWake that has come due at now.
func (d *Driver) onTimer(rs *runState, now time.Time) {
	d.fireRetries(rs, now)
	if !now.Before(rs.stallAt) {
		d.resendIncomplete(rs, now)
		rs.stallAt = now.Add(rs.stallEvery)
	}
	if !rs.specAt.IsZero() && !now.Before(rs.specAt) {
		d.checkStragglers(rs, now)
		rs.specAt = now.Add(d.cfg.SpeculationInterval)
	}
}

// fireRetries resubmits every due retry entry, pruning entries whose task
// already completed (e.g. a late duplicate landed first or the group moved
// on).
func (d *Driver) fireRetries(rs *runState, now time.Time) {
	var due []core.TaskID
	rest := rs.retryQ[:0]
	for _, e := range rs.retryQ {
		if e.due.After(now) {
			rest = append(rest, e)
			continue
		}
		if r := rs.at(e.id); r != nil && r.state == taskOutstanding {
			due = append(due, e.id)
		}
	}
	rs.retryQ = rest
	if len(due) > 0 {
		due = d.repairLineage(rs, due)
		d.resubmit(rs, due, now)
	}
}

// repairLineage extends a set of about-to-retry tasks with the producers
// lostProducers finds, and forgets those producers' recorded outputs. It
// cannot be left to the stall net alone: every status report, including a
// failure, pushes back the stall check, so a task failing in a tight retry
// loop starves the stall path forever while it burns through
// MaxTaskAttempts. A task on its third or later attempt distrusts its recorded holders
// outright: a retry loop that keeps failing is almost always a consumer
// chasing a stale shuffle location (a holder that died between producing and
// serving, or a worker-side ready entry poisoned by a duplicated DataReady
// from before a driver restart). Re-running the producers refreshes every
// location table with a live holder.
func (d *Driver) repairLineage(rs *runState, ids []core.TaskID) []core.TaskID {
	in := make([]bool, len(rs.rows))
	for _, id := range ids {
		in[rs.index(id)] = true
	}
	lost := rs.lostProducers(ids, in, true)
	for _, p := range lost {
		rs.rows[rs.index(p)].holder = ""
	}
	return append(ids, lost...)
}

// lostProducers is the one lineage walk of recovery (§3.3): a completed
// producer must re-run when a task marked in (by row) reads its output and
// that output has no live holder, and the producers it adds are walked in
// turn. With distrustRetried, a task on its third or later attempt treats
// every recorded holder of its inputs as lost. Producers never completed are
// left to the launch path. The walk starts from seeds, marks what it adds in
// in, and returns the added producers.
func (rs *runState) lostProducers(seeds []core.TaskID, in []bool, distrustRetried bool) []core.TaskID {
	var lost []core.TaskID
	frontier := append([]core.TaskID(nil), seeds...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		all := distrustRetried && rs.rows[rs.index(id)].attempts >= 2
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			i := rs.index(producer)
			if rs.placement.Contains(rs.rows[i].holder) && !all {
				continue // surviving output, reusable via lineage
			}
			if in[i] || rs.rows[i].state != taskDone {
				continue // being re-run anyway, or the launch path owns it
			}
			in[i] = true
			lost = append(lost, producer)
			frontier = append(frontier, producer)
		}
	}
	return lost
}

// onStatus processes one task status report. With speculation there can be
// two attempts of a task in flight; the first OK report commits the task
// (first-result-wins) and the losing attempt is killed. The state store's
// batch dedup makes a loser that completes anyway harmless.
func (d *Driver) onStatus(rs *runState, st core.TaskStatus, now time.Time) error {
	r := rs.at(st.ID)
	if r == nil || r.state != taskOutstanding {
		// A duplicate (resend, re-execution or speculation loser), or a
		// stale report from a previous group or from below the table.
		return nil
	}
	primary := r.worker
	if !rs.placement.Contains(st.Worker) {
		// The report raced a membership change: the worker was declared dead
		// with this status in flight. Its outputs are unfetchable now, so
		// committing the task would point lineage at a dead holder — and the
		// completed-dedup guard would then drop the live re-execution's
		// report, wedging every consumer. Failure handling already resubmitted
		// the task; this report is simply void.
		return nil
	}
	sa := r.spec
	hasSpec := sa.worker != ""
	fromSpec := hasSpec && st.Worker == sa.worker && st.Attempt == sa.attempt
	if !st.OK {
		// A missing-precondition failure means a control message was lost,
		// not that the task is broken: re-deliver the cause and retry
		// without charging an attempt.
		if st.NeedsJob {
			_ = d.net.Send(d.id, st.Worker, core.SubmitJob{Job: rs.jobName, StartNanos: rs.planner.StartNanos})
			// A worker that lost its SubmitJob almost certainly lost the
			// membership broadcast sent with it; workers discard stale
			// epochs, so re-sending is idempotent.
			_ = d.net.Send(d.id, st.Worker, d.membershipUpdate(rs.placement))
		}
		key := checkpoint.StateKey{Job: rs.jobName, Stage: st.ID.Stage, Partition: st.ID.Partition}
		if _, tracked := rs.restores[key]; tracked && st.NeedsState {
			d.sendRestore(rs, key)
		}
		if fromSpec {
			// The speculative copy failed; the original is still running
			// and keeps its attempt budget. The copy is simply written off.
			r.spec = specAttempt{}
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
			if !st.NeedsJob && !st.NeedsState {
				d.health.ObserveFailure(st.Worker)
			}
			return nil
		}
		if slices.ContainsFunc(rs.retryQ, func(e retryEntry) bool { return e.id == st.ID }) {
			return nil // a copy of the failure whose retry is queued: charged once
		}
		if !st.NeedsJob && !st.NeedsState {
			d.health.ObserveFailure(st.Worker)
			r.attempts++
			if r.attempts >= d.cfg.MaxTaskAttempts {
				return fmt.Errorf("engine: task %v failed %d times, last: %s", st.ID, r.attempts, st.Err)
			}
		}
		rs.stats.Resubmits++
		d.m.resubmits.Inc()
		// Delay the retry: a failure usually means a machine just died,
		// and the resubmission should happen after the membership update
		// and lineage cleanup rather than chase the same dead holder.
		rs.retryQ = append(rs.retryQ, retryEntry{id: st.ID, due: now.Add(d.cfg.RetryDelay)})
		return nil
	}
	// task.commit: the driver-side bookkeeping that makes the completion
	// durable, parented under the worker's task span via the echoed ID.
	var cspan trace.Active
	if st.TraceSpan != 0 {
		cspan = d.cfg.Tracer.Begin("task.commit", trace.SpanID(st.TraceSpan))
		cspan.SetNode(string(d.id))
		cspan.SetTask(int64(st.ID.Batch), st.ID.Stage, st.ID.Partition, st.Attempt)
	}
	r.state, r.worker, r.launched = taskDone, "", time.Time{}
	rs.remaining--
	rs.stats.TaskRun.ObserveMillis(float64(st.RunNanos) / 1e6)
	rs.stats.TaskQueue.ObserveMillis(float64(st.QueueNanos) / 1e6)
	d.m.commits.Inc()
	d.m.taskRunMs.ObserveMillis(float64(st.RunNanos) / 1e6)
	d.m.taskQueueMs.ObserveMillis(float64(st.QueueNanos) / 1e6)
	rs.recordDuration(float64(st.RunNanos) / 1e6)
	ps := rs.peer(st.ID)
	if ps.done++; ps.done == 1 {
		ps.first = now // the first of its (batch, stage) to commit
	}
	d.health.ObserveSuccess(st.Worker, time.Duration(st.RunNanos))

	if hasSpec {
		r.spec = specAttempt{}
		if fromSpec {
			rs.stats.SpeculationWon++
			d.m.specWon.Inc()
			d.killAttempt(rs, primary, st.ID, 0)
		} else {
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
			d.killAttempt(rs, sa.worker, st.ID, sa.attempt)
		}
	}

	stage := &rs.planner.Job.Stages[st.ID.Stage]
	if stage.Shuffle != nil {
		r.holder = st.Worker
		if r.relay {
			r.relay = false
			d.relayDataReady(rs, core.Dep{Job: rs.jobName, Batch: st.ID.Batch, Stage: st.ID.Stage, MapPartition: st.ID.Partition}, st.Worker)
		}
	}
	cspan.End()
	return nil
}

// relayDataReady forwards a recovered map output's location to the current
// owners of its consumers, covering notification races around failures.
func (d *Driver) relayDataReady(rs *runState, dep core.Dep, holder rpc.NodeID) {
	sent := make(map[rpc.NodeID]bool)
	for _, child := range rs.planner.Job.Children(dep.Stage) {
		for r := 0; r < rs.planner.Job.Stages[child].NumPartitions; r++ {
			owner := rs.placement.Assign(child, r)
			if sent[owner] {
				continue
			}
			sent[owner] = true
			_ = d.net.Send(d.id, owner, core.DataReady{Dep: dep, Holder: holder})
		}
	}
}

// describe builds a task's descriptor against the current placement and
// lineage: every dependency with a live recorded holder is passed along, and
// the MinState floor of a partition recovery moved is stamped.
func (d *Driver) describe(rs *runState, id core.TaskID, attempt int) core.TaskDescriptor {
	desc := core.TaskDescriptor{
		Job:              rs.jobName,
		ID:               id,
		Attempt:          attempt,
		Deps:             rs.planner.DepsOf(id.Batch, id.Stage, id.Partition),
		NotifyDownstream: d.cfg.Mode == ModeDrizzle,
		MinState:         rs.minState(id),
	}
	if rs.planner.Job.Stages[id.Stage].IsSource() {
		desc.NotBefore = rs.planner.BatchCloseNanos(id.Batch)
	}
	desc.KnownLocations = rs.knownLocations(desc.Deps)
	return desc
}

// resubmit rebuilds descriptors for the given tasks against the current
// placement and lineage, and launches them.
func (d *Driver) resubmit(rs *runState, ids []core.TaskID, now time.Time) {
	byWorker := make(map[rpc.NodeID][]core.TaskDescriptor)
	for _, id := range ids {
		w := rs.placement.Assign(id.Stage, id.Partition)
		byWorker[w] = append(byWorker[w], d.describe(rs, id, 0))
		r := rs.row(id)
		if r.state != taskOutstanding {
			rs.remaining++
		}
		// Restart the straggler clock: a freshly resubmitted task must not
		// be flagged for time its failed predecessor burned.
		r.state, r.worker, r.launched = taskOutstanding, w, now
		if rs.planner.Job.Stages[id.Stage].Shuffle != nil {
			r.relay = true
		}
	}
	d.chargeCosts(len(ids), 0, len(byWorker))
	d.launch(byWorker, d.purgeWatermark(rs))
}

// resendIncomplete is the stall safety net: re-deliver descriptors for all
// incomplete tasks with the driver's best-known dependency locations.
func (d *Driver) resendIncomplete(rs *runState, now time.Time) {
	if rs.remaining == 0 {
		return
	}
	// Restores first: a stalled group may be waiting on a replay task that
	// is itself waiting on a lost RestoreState. A stall can equally mean a
	// worker never saw the membership broadcast (it then skips DataReady
	// pushes), so re-broadcast that too — stale epochs are discarded.
	d.resendRestores(rs)
	d.broadcast(d.membershipUpdate(rs.placement))
	ids := make([]core.TaskID, 0, rs.remaining)
	in := make([]bool, len(rs.rows))
	for i := range rs.rows {
		if rs.rows[i].state == taskOutstanding {
			ids = append(ids, rs.taskAt(i))
			in[i] = true
		}
	}
	// A stalled task can be waiting on a dependency whose committed holder
	// has since died — resending the descriptor alone would omit that
	// location forever — so the lost producers re-run with it.
	ids = append(ids, rs.lostProducers(ids, in, false)...)
	d.m.stalls.Inc()
	d.log.Warn("stall detected, re-sending incomplete tasks", "count", len(ids), "tasks", fmt.Sprintf("%v", ids))
	d.resubmit(rs, ids, now)
}

// onWorkerFailure handles a dead worker: membership update, lineage-based
// re-execution of lost work across micro-batches (in parallel), and state
// restoration for moved terminal partitions (§3.3).
func (d *Driver) onWorkerFailure(rs *runState, dead rpc.NodeID, now time.Time) {
	d.mu.Lock()
	ws, ok := d.workers[dead]
	if !ok || !ws.alive {
		d.mu.Unlock()
		return
	}
	ws.alive = false
	delete(d.workers, dead)
	d.health.Remove(dead)
	d.epoch++
	var weights map[rpc.NodeID]float64
	if d.cfg.Speculation {
		weights = d.health.Weights(now, d.liveLocked())
	}
	newP := core.NewWeightedPlacement(d.epoch, d.liveLocked(), weights)
	d.placement = newP
	var walWorkers map[rpc.NodeID]string
	if d.cfg.WAL != nil {
		walWorkers = d.membershipTableLocked()
	}
	walEpoch := d.epoch
	d.mu.Unlock()
	if walWorkers != nil {
		if err := d.cfg.WAL.AppendMembership(walEpoch, walWorkers); err != nil {
			d.log.Warn("wal membership append failed", "err", err)
		}
	}

	if fi, ok := d.net.(rpc.FailureInjector); ok {
		// Ensure no in-flight sends target the dead node (real TCP would
		// just fail; the in-memory transport needs the hint when the
		// worker was stopped without a network-level failure).
		fi.Fail(dead)
	}
	d.log.Warn("worker declared dead", "worker", string(dead), "epoch", newP.Epoch())
	rs.stats.Failures++
	d.m.failures.Inc()
	// A failure is an adaptability event: shrink the group at the next
	// boundary so re-planning happens sooner (§3.4).
	rs.shrinkPending = true

	oldP := rs.placement
	rs.placement = newP
	d.broadcast(d.membershipUpdate(newP))

	// The walks below see every task of the group, launched or not.
	groupEnd := rs.groupFirst + core.BatchID(rs.groupSize)
	rs.grow(groupEnd - 1)
	resubmit := make([]bool, len(rs.rows)) // by row
	for i := range rs.rows {
		r := &rs.rows[i]
		// In-flight shuffle producers on surviving workers push their
		// DataReady notifications using the placement they captured at task
		// start — under the old epoch some of those point at the dead worker
		// and vanish, and a consumer partition that moved to a new owner then
		// waits the full stall interval for a location it should have learned
		// at commit time. Mark every outstanding producer for a driver-side
		// relay so the commit re-announces the holder under the new placement.
		if r.state == taskOutstanding && rs.planner.Job.Stages[rs.taskAt(i).Stage].Shuffle != nil {
			r.relay = true
		}
		if newP.NumWorkers() == 0 {
			continue // waitTasks will stall; nothing can run
		}
		// Speculative copies hosted by the dead worker are written off.
		if r.spec.worker == dead {
			r.spec = specAttempt{}
			rs.stats.SpeculationWasted++
			d.m.specWasted.Inc()
		}
		// (a) Incomplete tasks that were assigned to the dead worker. A
		// task whose speculative copy is still alive needs no resubmission:
		// the copy is promoted to primary (it counts as a speculation win —
		// the redundant launch is what kept the task alive).
		if r.state != taskOutstanding || r.worker != dead {
			continue
		}
		if r.spec.worker != "" {
			r.worker, r.launched, r.spec = r.spec.worker, now, specAttempt{}
			rs.stats.SpeculationWon++
			d.m.specWon.Inc()
			continue
		}
		resubmit[i] = true
	}
	if newP.NumWorkers() == 0 {
		return
	}

	// (c) Terminal partitions owned by the dead worker: restore their
	// state on the new owner and replay every batch since the snapshot.
	// The snapshot is never older than the table's base, which the purge
	// watermark held at or below every durable snapshot.
	for _, key := range rs.stateKeys {
		if oldP.Assign(key.Stage, key.Partition) != dead {
			continue
		}
		restoredBatch := d.sendRestore(rs, key)
		rs.restores[key] = restoredBatch
		for b := max(restoredBatch+1, rs.base); b < groupEnd; b++ {
			resubmit[rs.index(core.TaskID{Batch: b, Stage: key.Stage, Partition: key.Partition})] = true
		}
	}

	// (b) Lost shuffle outputs: drop the dead worker's lineage entries,
	// then re-run the lost producers of every task that will (re)run or has
	// yet to run. That includes the group's unlaunched tasks: BSP launches
	// stage by stage, so a map output can commit and lose its holder before
	// the next stage's plan demands it, with no launched consumer to
	// witness the loss. A producer still in flight is never completed, so
	// the walk leaves it to its running attempt.
	in := make([]bool, len(rs.rows))
	var seeds []core.TaskID
	for i := range rs.rows {
		r := &rs.rows[i]
		if r.holder == dead {
			r.holder = ""
		}
		id := rs.taskAt(i)
		if resubmit[i] || r.state == taskOutstanding || (id.Batch >= rs.groupFirst && id.Batch < groupEnd && r.state != taskDone) {
			in[i] = true
			seeds = append(seeds, id)
		}
	}
	for _, id := range rs.lostProducers(seeds, in, false) {
		resubmit[rs.index(id)] = true
	}

	// Task order aids debugging; execution order is up to the workers
	// (parallel recovery across micro-batches).
	var ids []core.TaskID
	for i, on := range resubmit {
		if on {
			ids = append(ids, rs.taskAt(i))
		}
	}
	if len(ids) == 0 {
		return
	}
	rs.stats.Resubmits += len(ids)
	d.m.resubmits.Add(int64(len(ids)))
	d.resubmit(rs, ids, now)
}
