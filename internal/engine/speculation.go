package engine

// The straggler detector and speculative copies (§3.4): the duration and
// peer ledgers it reads, the scan that flags a straggler, and the launch and
// kill of a copy. Like recovery.go, each function takes the time it needs as
// a parameter and never blocks.

import (
	"sort"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/rpc"
)

const (
	// specInterval is how often the driver scans outstanding tasks for
	// stragglers.
	specInterval = 20 * time.Millisecond
	// specMinCompleted is how many task completions the detector must
	// observe before it trusts its median.
	specMinCompleted = 6
	// specMaxConcurrent caps in-flight speculative copies, bounding the
	// redundant work a pathological cluster can trigger.
	specMaxConcurrent = 8
)

// specAttempt is the driver's record of one in-flight speculative copy.
type specAttempt struct {
	worker  rpc.NodeID
	attempt int
}

// peerStat is per-(batch, stage) completion progress for the straggler
// detector's peer gate: it only trusts a task's elapsed time once enough of
// its batch peers finished, so a run that is merely behind schedule
// (boundary congestion, recovery replay) does not flag every task at once.
type peerStat struct {
	first time.Time // when the first task of the (batch, stage) completed
	done  int       // how many have completed
}

// recordDuration folds a completed task's duration into the detector's
// ring of recent samples.
func (rs *runState) recordDuration(ms float64) {
	const ringSize = 64
	if len(rs.durs) < ringSize {
		rs.durs = append(rs.durs, ms)
	} else {
		rs.durs[rs.durSeen%ringSize] = ms
	}
	rs.durSeen++
}

// medianDurMillis returns the median of the recent-duration ring.
func (rs *runState) medianDurMillis() float64 {
	if len(rs.durs) == 0 {
		return 0
	}
	s := append([]float64(nil), rs.durs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// checkStragglers is the quantile-based straggler detector, run every
// specInterval by the wait loop: a running task is flagged once its elapsed
// time exceeds SpeculationMultiplier × the median completed-task duration
// (with the SpeculationMinRuntime floor, so a tiny median never flags
// anything), and a speculative copy is launched on the healthiest other
// worker — bounded by specMaxConcurrent copies in flight, oldest task first.
func (d *Driver) checkStragglers(rs *runState, now time.Time) {
	if rs.durSeen < specMinCompleted {
		return // median not trustworthy yet
	}
	threshold := time.Duration(d.cfg.SpeculationMultiplier * rs.medianDurMillis() * float64(time.Millisecond))
	if threshold < d.cfg.SpeculationMinRuntime {
		threshold = d.cfg.SpeculationMinRuntime
	}
	live := rs.placement.Workers()
	if len(live) < 2 {
		return // nowhere else to run a copy
	}
	inFlight := 0
	for i := range rs.rows {
		if rs.rows[i].spec.worker != "" {
			inFlight++
		}
	}
	for i := range rs.rows {
		if inFlight >= specMaxConcurrent {
			return
		}
		r := &rs.rows[i]
		if r.state != taskOutstanding || r.spec.worker != "" {
			continue
		}
		id := rs.taskAt(i)
		stage := &rs.planner.Job.Stages[id.Stage]
		if stage.IsTerminal() && stage.Window != nil {
			// Stateful tasks must run on their partition's owner — a copy
			// elsewhere would fold batches into divergent state. A slow
			// owner is handled by health weighting instead: its weight
			// drops and the partition migrates at the next boundary.
			continue
		}
		start := r.launched
		if start.IsZero() {
			continue
		}
		// A task cannot start before its micro-batch's input interval has
		// closed (source gating); clock it from the later of launch and
		// batch close so pre-scheduled future-batch tasks are not flagged.
		if closeAt := time.Unix(0, rs.planner.BatchCloseNanos(id.Batch)); closeAt.After(start) {
			start = closeAt
		}
		if now.Sub(start) < threshold {
			continue
		}
		// Peer gate: absolute elapsed time lies when the whole run is
		// behind schedule (boundary congestion, recovery replay) — every
		// task of a batch then looks late simultaneously. Only flag a task
		// once at least half its same-(batch, stage) peers committed AND it
		// is a threshold behind the first of them; a straggler is slow
		// relative to its peers, not relative to the clock.
		if stage.NumPartitions > 1 {
			ps := rs.peer(id)
			if 2*ps.done < stage.NumPartitions {
				continue
			}
			if now.Sub(ps.first) < threshold {
				continue
			}
		}
		target := d.health.PickSpeculative(now, live, r.worker)
		if target == "" || target == r.worker {
			continue
		}
		if d.launchSpeculative(rs, id, r.worker, target) {
			inFlight++
		}
	}
}

// launchSpeculative sends a redundant copy of a flagged task to target,
// records it for first-result-wins commit, marks the original's worker as
// hosting a straggler, and schedules a group shrink (§3.4). It reports
// whether the copy was sent.
func (d *Driver) launchSpeculative(rs *runState, id core.TaskID, primary, target rpc.NodeID) bool {
	r := rs.row(id)
	r.specSeq++
	attempt := r.specSeq
	desc := d.describe(rs, id, attempt)
	d.chargeCosts(1, 0, 1)
	if err := d.net.Send(d.id, target, core.LaunchTasks{Tasks: []core.TaskDescriptor{desc}, PurgeBefore: d.purgeWatermark(rs)}); err != nil {
		d.log.Warn("speculative launch send failed", "to", string(target), "err", err)
		return false
	}
	r.spec = specAttempt{worker: target, attempt: attempt}
	rs.stats.SpeculationLaunched++
	d.m.specLaunch.Inc()
	d.health.ObserveStraggler(primary)
	rs.shrinkPending = true
	d.log.Info("straggler detected, launching speculative copy",
		"batch", int64(id.Batch), "stage", id.Stage, "part", id.Partition,
		"on", string(primary), "attempt", attempt, "target", string(target))
	return true
}

// killAttempt tells a worker to abandon a losing attempt: dequeue it if
// still queued, suppress its status if running. Correctness never depends
// on the kill arriving — batch dedup absorbs duplicate completions and
// onStatus drops duplicate reports — it exists to free the loser's slot.
func (d *Driver) killAttempt(rs *runState, w rpc.NodeID, id core.TaskID, attempt int) {
	if w == "" || !rs.placement.Contains(w) {
		return
	}
	rs.stats.SpeculationKilled++
	d.m.specKilled.Inc()
	_ = d.net.Send(d.id, w, core.KillTask{Tasks: []core.TaskAttempt{{ID: id, Attempt: attempt}}})
}
