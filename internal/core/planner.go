package core

import (
	"drizzle/internal/dag"
	"drizzle/internal/rpc"
)

// GroupPlanner builds the task descriptors for a group of micro-batches —
// the single scheduling decision of §3.1. It is pure: given the plan, the
// placement and the batch range it deterministically produces the same
// bundles, which recovery exploits to recompute who-owned-what.
type GroupPlanner struct {
	JobName string
	Job     *dag.Job
	// StartNanos is the job epoch; batch b's input interval closes at
	// StartNanos + (b+1)*Interval.
	StartNanos int64
}

// BatchCloseNanos returns the wall-clock close time of batch b.
func (g *GroupPlanner) BatchCloseNanos(b BatchID) int64 {
	return g.StartNanos + int64(b+1)*int64(g.Job.Interval)
}

// BatchForTime returns the batch whose input interval contains the given
// wall-clock time.
func (g *GroupPlanner) BatchForTime(nanos int64) BatchID {
	if nanos < g.StartNanos {
		return 0
	}
	return BatchID((nanos - g.StartNanos) / int64(g.Job.Interval))
}

// Deps enumerates the upstream map outputs task (b, stage, partition)
// waits for. For an all-to-all shuffle that is every parent partition; a
// shuffle with a known communication structure (§3.6, treeReduce) narrows
// it to the structure's fan-in, which is what lets pre-scheduled tasks
// activate after just a handful of notifications.
func (g *GroupPlanner) Deps(b BatchID, stage int) []Dep {
	return g.DepsOf(b, stage, -1)
}

// DepsOf is Deps for a specific consumer partition; partition -1 returns
// the union over all partitions (used for bookkeeping).
func (g *GroupPlanner) DepsOf(b BatchID, stage, partition int) []Dep {
	s := &g.Job.Stages[stage]
	if s.IsSource() {
		return nil
	}
	var deps []Dep
	for _, parent := range s.Parents {
		ps := &g.Job.Stages[parent]
		lo, hi := 0, ps.NumPartitions
		if st := ps.Shuffle.Structure; st != nil && partition >= 0 {
			lo, hi = st.Producers(partition, ps.NumPartitions)
		}
		for m := lo; m < hi; m++ {
			deps = append(deps, Dep{Job: g.JobName, Batch: b, Stage: parent, MapPartition: m})
		}
	}
	return deps
}

// PlanGroup produces the per-worker descriptor bundles for batches
// [first, first+size), plus the flat descriptor list for driver
// bookkeeping. Every task is pre-scheduled with worker-to-worker
// notification (Drizzle); the BSP driver plans stage by stage with
// PlanStage instead.
func (g *GroupPlanner) PlanGroup(p Placement, first BatchID, size int, group int64) (map[rpc.NodeID][]TaskDescriptor, []TaskDescriptor) {
	byWorker := make(map[rpc.NodeID][]TaskDescriptor)
	var all []TaskDescriptor
	for b := first; b < first+BatchID(size); b++ {
		for si := range g.Job.Stages {
			for part := 0; part < g.Job.Stages[si].NumPartitions; part++ {
				desc := g.task(b, si, part, group)
				desc.NotifyDownstream = true
				w := p.Assign(si, part)
				byWorker[w] = append(byWorker[w], desc)
				all = append(all, desc)
			}
		}
	}
	return byWorker, all
}

// PlanStage produces descriptors for a single stage of a single batch — the
// BSP (per-micro-batch, per-stage) scheduling path. The caller stamps the
// dependency locations it collected at its barrier.
func (g *GroupPlanner) PlanStage(p Placement, b BatchID, stage int, group int64) (map[rpc.NodeID][]TaskDescriptor, []TaskDescriptor) {
	byWorker := make(map[rpc.NodeID][]TaskDescriptor)
	var all []TaskDescriptor
	for part := 0; part < g.Job.Stages[stage].NumPartitions; part++ {
		desc := g.task(b, stage, part, group)
		w := p.Assign(stage, part)
		byWorker[w] = append(byWorker[w], desc)
		all = append(all, desc)
	}
	return byWorker, all
}

// task is the descriptor of one task of group, without notification: a
// source task is gated on its batch's close.
func (g *GroupPlanner) task(b BatchID, stage, part int, group int64) TaskDescriptor {
	desc := TaskDescriptor{Job: g.JobName, ID: TaskID{Batch: b, Stage: stage, Partition: part}, Deps: g.DepsOf(b, stage, part), Group: group}
	if g.Job.Stages[stage].IsSource() {
		desc.NotBefore = g.BatchCloseNanos(b)
	}
	return desc
}
