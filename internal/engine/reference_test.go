package engine

// Kept oracles: the three lineage walks the driver had before they were
// folded into lostProducers, copied verbatim (only turned from methods and
// inline blocks into functions). TestLostProducersMatchesReference runs
// every caller of the one walk against them on random run states.

import (
	"maps"
	"math/rand"
	"sort"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// refRepairLineage is the retry path's walk: a task on its third or later
// attempt distrusts every recorded holder, and the lineage entry of each
// producer added is deleted.
func refRepairLineage(rs *runState, ids []core.TaskID) []core.TaskID {
	inSet := make(map[core.TaskID]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	frontier := append([]core.TaskID(nil), ids...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		distrust := rs.attempts[id] >= 2
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) && !distrust {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if inSet[producer] || !rs.completed[producer] {
				continue // being resent anyway, or the launch path owns it
			}
			delete(rs.mapHolders, dep)
			inSet[producer] = true
			ids = append(ids, producer)
			frontier = append(frontier, producer)
		}
	}
	return ids
}

// refResendWalk is the stall safety net's walk: it returns every task
// resendIncomplete re-sends.
func refResendWalk(rs *runState) []core.TaskID {
	ids := make([]core.TaskID, 0, rs.remaining)
	inSet := make(map[core.TaskID]bool, rs.remaining)
	for id := range rs.outstanding {
		ids = append(ids, id)
		inSet[id] = true
	}
	// Lineage check: a stalled task can be waiting on a dependency whose
	// committed holder has since died — resending the descriptor alone would
	// omit that location forever. Transitively re-run such producers along
	// with the stalled tasks.
	frontier := append([]core.TaskID(nil), ids...)
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if inSet[producer] || !rs.completed[producer] {
				continue // being resent anyway, or the launch path owns it
			}
			inSet[producer] = true
			ids = append(ids, producer)
			frontier = append(frontier, producer)
		}
	}
	return ids
}

// refFailureWalk is block (b) of worker-failure handling: given the resubmit
// set blocks (a) and (c) built and the post-failure placement in
// rs.placement, it drops the dead worker's lineage entries and adds the
// producers to re-run.
func refFailureWalk(rs *runState, dead rpc.NodeID, resubmitSet map[core.TaskID]bool) {
	groupEnd := rs.groupFirst + core.BatchID(rs.groupSize)
	for dep, h := range rs.mapHolders {
		if h == dead {
			delete(rs.mapHolders, dep)
		}
	}
	// Seed the frontier with the deps of everything that will (re)run or has
	// yet to run. Tasks of the group not launched yet matter too: BSP mode
	// launches stage by stage, so a map output can commit, lose its holder to
	// this failure, and only afterwards be demanded by the next stage's plan —
	// with no launched consumer to witness the loss. Walking the whole group
	// re-runs such producers now instead of wedging the later stage.
	seen := make(map[core.TaskID]bool, len(resubmitSet)+len(rs.outstanding))
	frontier := make([]core.TaskID, 0, len(resubmitSet)+len(rs.outstanding))
	for id := range resubmitSet {
		seen[id] = true
		frontier = append(frontier, id)
	}
	for id := range rs.outstanding {
		if !seen[id] {
			seen[id] = true
			frontier = append(frontier, id)
		}
	}
	for b := rs.groupFirst; b < groupEnd; b++ {
		if b < 0 {
			continue
		}
		for si := range rs.planner.Job.Stages {
			for p := 0; p < rs.planner.Job.Stages[si].NumPartitions; p++ {
				id := core.TaskID{Batch: b, Stage: si, Partition: p}
				if seen[id] || rs.completed[id] {
					continue
				}
				seen[id] = true
				frontier = append(frontier, id)
			}
		}
	}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, dep := range rs.planner.DepsOf(id.Batch, id.Stage, id.Partition) {
			if h, ok := rs.mapHolders[dep]; ok && rs.placement.Contains(h) {
				continue // surviving output, reusable via lineage
			}
			producer := core.TaskID{Batch: dep.Batch, Stage: dep.Stage, Partition: dep.MapPartition}
			if resubmitSet[producer] {
				continue
			}
			if _, running := rs.outstanding[producer]; running && rs.outstanding[producer] != dead {
				continue // already in flight on a live worker
			}
			if _, running := rs.outstanding[producer]; !running && !rs.completed[producer] {
				continue // never produced nor launched; the normal launch path runs it
			}
			resubmitSet[producer] = true
			frontier = append(frontier, producer)
		}
	}
}

// randomRunState fills a fixture over threeStageJob, batches 0–3, with random
// completed and outstanding tasks (never both), lineage entries on live and
// departed workers, attempt counts, a group and terminal snapshots.
func randomRunState(t *testing.T, rng *rand.Rand) (*failpathFixture, []rpc.NodeID) {
	pool := []rpc.NodeID{"w0", "w1", "w2", "w3"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	workers := append([]rpc.NodeID(nil), pool[:2+rng.Intn(3)]...)
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	f := newFailpathFixture(t, ModeDrizzle, workers, threeStageJob(nil))
	f.driver.log = obs.Discard()
	rs := f.rs
	holders := append([]rpc.NodeID{"gone"}, workers...)
	const batches = 4
	for b := core.BatchID(0); b < batches; b++ {
		for si := range rs.planner.Job.Stages {
			stage := &rs.planner.Job.Stages[si]
			for p := 0; p < stage.NumPartitions; p++ {
				id := core.TaskID{Batch: b, Stage: si, Partition: p}
				switch r := rng.Intn(8); {
				case r < 4:
					rs.completed[id] = true
				case r < 6:
					rs.outstanding[id] = workers[rng.Intn(len(workers))]
					rs.remaining++
				}
				if stage.Shuffle != nil && rng.Intn(10) < 8 {
					dep := core.Dep{Job: rs.jobName, Batch: b, Stage: si, MapPartition: p}
					rs.mapHolders[dep] = holders[rng.Intn(len(holders))]
				}
				if rng.Intn(3) == 0 {
					rs.attempts[id] = rng.Intn(4)
				}
			}
		}
	}
	rs.groupFirst = core.BatchID(rng.Intn(batches))
	rs.groupSize = 1 + rng.Intn(batches-int(rs.groupFirst))
	for p := 0; p < rs.planner.Job.Stages[2].NumPartitions; p++ {
		if b := rng.Intn(batches+1) - 1; b >= 0 {
			key := checkpoint.StateKey{Job: rs.jobName, Stage: 2, Partition: p}
			if err := f.driver.ckpt.Put(&checkpoint.Snapshot{Key: key, Batch: int64(b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f, workers
}

// cloneRunState copies the bookkeeping the walks read and write.
func cloneRunState(rs *runState) *runState {
	c := *rs
	c.outstanding = maps.Clone(rs.outstanding)
	c.completed = maps.Clone(rs.completed)
	c.mapHolders = maps.Clone(rs.mapHolders)
	c.attempts = maps.Clone(rs.attempts)
	c.restores = make(map[checkpoint.StateKey]core.BatchID)
	c.relay = make(map[core.TaskID]bool)
	return &c
}

func taskSet(ids []core.TaskID) map[core.TaskID]bool {
	s := make(map[core.TaskID]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// launchedTasks returns every task the recording network saw launched.
func launchedTasks(n *recordingNet) map[core.TaskID]bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[core.TaskID]bool)
	for _, s := range n.sends {
		if lt, ok := s.msg.(core.LaunchTasks); ok {
			for _, desc := range lt.Tasks {
				out[desc.ID] = true
			}
		}
	}
	return out
}

// TestLostProducersMatchesReference: on 2,000 seeded random run states, each
// caller of lostProducers — the retry path, the stall safety net and
// worker-failure handling — re-runs exactly the tasks the walk it replaced
// re-ran, and leaves the same lineage table.
func TestLostProducersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 2000; i++ {
		// Retry path: the retried tasks are outstanding ones, as in
		// fireRetries.
		f, _ := randomRunState(t, rng)
		var retry []core.TaskID
		for id := range f.rs.outstanding {
			if rng.Intn(2) == 0 {
				retry = append(retry, id)
			}
		}
		ref := cloneRunState(f.rs)
		want := taskSet(refRepairLineage(ref, append([]core.TaskID(nil), retry...)))
		got := taskSet(f.driver.repairLineage(f.rs, retry))
		if !maps.Equal(got, want) || !maps.Equal(f.rs.mapHolders, ref.mapHolders) {
			t.Fatalf("state %d: repairLineage re-runs %v, holders %v; reference %v, holders %v",
				i, got, f.rs.mapHolders, want, ref.mapHolders)
		}

		// Stall safety net.
		f, _ = randomRunState(t, rng)
		ref = cloneRunState(f.rs)
		want = taskSet(refResendWalk(ref))
		f.driver.resendIncomplete(f.rs, time.Now())
		if got := launchedTasks(f.net); !maps.Equal(got, want) || !maps.Equal(f.rs.mapHolders, ref.mapHolders) {
			t.Fatalf("state %d: resendIncomplete re-sends %v; reference %v", i, got, want)
		}

		// Worker failure: blocks (a) and (c) build the resubmit set the
		// reference walk starts from.
		f, workers := randomRunState(t, rng)
		dead := workers[rng.Intn(len(workers))]
		ref = cloneRunState(f.rs)
		oldP := ref.placement
		var live []rpc.NodeID
		for _, w := range workers {
			if w != dead {
				live = append(live, w)
			}
		}
		ref.placement = core.NewPlacement(f.driver.epoch+1, live)
		resubmitSet := make(map[core.TaskID]bool)
		for id, w := range ref.outstanding {
			if w == dead {
				resubmitSet[id] = true
			}
		}
		groupEnd := ref.groupFirst + core.BatchID(ref.groupSize)
		for p := 0; p < ref.planner.Job.Stages[2].NumPartitions; p++ {
			if oldP.Assign(2, p) != dead {
				continue
			}
			restored := core.BatchID(-1)
			if snap, ok, _ := f.driver.ckpt.Latest(checkpoint.StateKey{Job: ref.jobName, Stage: 2, Partition: p}); ok {
				restored = core.BatchID(snap.Batch)
			}
			for b := max(restored+1, 0); b < groupEnd; b++ {
				resubmitSet[core.TaskID{Batch: b, Stage: 2, Partition: p}] = true
			}
		}
		refFailureWalk(ref, dead, resubmitSet)
		f.driver.onWorkerFailure(f.rs, dead, time.Now())
		if got := launchedTasks(f.net); !maps.Equal(got, resubmitSet) || !maps.Equal(f.rs.mapHolders, ref.mapHolders) {
			t.Fatalf("state %d: failure of %s re-runs %v; reference %v", i, dead, got, resubmitSet)
		}
	}
}
