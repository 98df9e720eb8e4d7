package core

import (
	"drizzle/internal/rpc"
)

// Control-plane messages exchanged between the driver and workers, and
// between workers (DataReady). Each registers a binary encoding (wire.go) so
// the same protocol runs over TCP.

// SubmitJob installs a job on a worker by registry name before any of its
// tasks are launched.
type SubmitJob struct {
	Job string
	// StartNanos is the job's epoch: batch b closes at
	// StartNanos + (b+1)*Interval.
	StartNanos int64
}

// MembershipUpdate announces the current live worker set. Workers compute
// placement from it locally (rendezvous hashing is deterministic), so a
// single small broadcast re-routes all future worker-to-worker
// notifications after an elasticity or failure event.
type MembershipUpdate struct {
	Epoch   int64
	Workers []rpc.NodeID
	// Addrs carries worker addresses for transports that need routing
	// tables (TCP); the in-process transport ignores it.
	Addrs map[rpc.NodeID]string
	// Weights carries the driver's health-derived placement weights. They
	// must travel with membership — workers compute placement locally, so a
	// weight change is a placement change and needs the same epoch-bumped
	// broadcast as a membership change. Nil or uniform weights reproduce
	// unweighted rendezvous hashing exactly.
	Weights map[rpc.NodeID]float64
}

// LaunchTasks delivers a bundle of task descriptors to one worker — the
// group scheduling RPC. PurgeBefore lets workers garbage-collect shuffle
// blocks and dependency bookkeeping of micro-batches older than the batch
// given (exclusive).
type LaunchTasks struct {
	Tasks       []TaskDescriptor
	PurgeBefore BatchID
}

// WireSize implements rpc.Sizer: launch cost scales with the number of
// descriptors, which is how the transport charges group scheduling's
// amortized (large, rare) messages versus BSP's small frequent ones.
func (l LaunchTasks) WireSize() int { return 64 + 192*len(l.Tasks) }

// CancelTasks removes queued (not yet running) tasks from a worker's local
// scheduler, used when the driver re-plans after a failure.
type CancelTasks struct {
	IDs []TaskID
}

// DataReady is the pre-scheduling notification: the holder of a completed
// map output tells a downstream worker the dependency is satisfied and
// where to fetch it from. Sent worker-to-worker; the driver also relays it
// for tasks it re-schedules during recovery.
//
// Blocks carries the stored bytes of the output's small blocks (below
// shuffle.SmallBlock) for the reduce partitions the receiver owns, so their
// consumers need no fetch. Only the producer's own notification carries
// any; the driver's relay carries none, and neither does a notification of
// an output whose blocks are all large.
type DataReady struct {
	Dep    Dep
	Holder rpc.NodeID
	Size   int64
	Blocks []ReadyBlock
}

// ReadyBlock is one block pushed inside a DataReady: the bytes the holder
// stored for reduce partition Partition of the notified dependency.
type ReadyBlock struct {
	Partition int
	Data      []byte
}

// WireSize implements rpc.Sizer: a notification without blocks is charged
// the transport's default (0 asks for it), one with blocks their bytes on
// top of that.
func (d DataReady) WireSize() int {
	if len(d.Blocks) == 0 {
		return 0
	}
	n := 256
	for _, b := range d.Blocks {
		n += 8 + len(b.Data)
	}
	return n
}

// KillTask tells a worker to abandon specific task attempts: dequeue them
// if still pending, and suppress their status reports if already running
// (execution itself is not interrupted mid-op — batch dedup in the state
// store makes a completed loser harmless, killing just frees the slot's
// report path and the driver's books). Sent when first-result-wins commit
// picks a winner between an original attempt and its speculative copy.
type KillTask struct {
	Tasks []TaskAttempt
}

// TaskAttempt names one attempt of one task.
type TaskAttempt struct {
	ID      TaskID
	Attempt int
}

// TaskStatus is the asynchronous task completion report to the driver.
type TaskStatus struct {
	ID     TaskID
	Worker rpc.NodeID
	// Attempt echoes the descriptor's attempt number so the driver can
	// attribute the report to the original (0) or a speculative copy (>0).
	Attempt int
	OK      bool
	Err     string
	// NeedsJob marks a failure caused by the worker not knowing the job
	// (its SubmitJob was lost); the driver re-sends the job and retries
	// without charging the task an attempt.
	NeedsJob bool
	// NeedsState marks a failure caused by a windowed terminal partition
	// lagging its restore floor (its RestoreState was lost); the driver
	// re-sends the restore and retries without charging an attempt.
	NeedsState bool
	// OutputSizes, for map tasks, gives per-reduce-partition output bytes.
	// The BSP driver uses it at its stage barrier; the Drizzle driver only
	// records the holder for lineage.
	OutputSizes []int64
	// RunNanos is the task's execution time, used for the breakdown
	// figures and the group-size tuner.
	RunNanos int64
	// QueueNanos is the time between the task becoming runnable and
	// starting, reported for the scheduler-delay breakdown.
	QueueNanos int64
	// TraceSpan echoes the worker-side task span's ID (0 when untraced) so
	// the driver parents its commit span under the task that produced the
	// report.
	TraceSpan uint64
}

// Heartbeat is the worker liveness signal. It doubles as the telemetry
// shipping vehicle: workers piggyback their metric series so the driver
// holds the cluster-wide view without a second RPC or poll loop — and the
// telemetry automatically survives exactly the fault plan heartbeats do.
//
// Samples carry absolute values, not increments, so application is
// idempotent: a duplicated or re-ordered heartbeat cannot double-count.
// Seq orders ships within an Incarnation (a restarted worker starts a new
// incarnation, telling the driver to discard the old mirror); the driver
// ignores any ship at or below the last applied Seq. Ordinary ships carry
// only series changed since the previous ship; every 8th (the engine's
// metricFullShipEvery) carries everything, repairing the bounded staleness
// a dropped heartbeat leaves behind.
type Heartbeat struct {
	Worker rpc.NodeID
	Nanos  int64
	// Incarnation identifies one worker process lifetime (its start time in
	// nanos); 0 when the heartbeat carries no telemetry.
	Incarnation int64
	// Seq increases by one per telemetry ship within an incarnation.
	Seq uint64
	// Full marks a ship carrying the worker's entire series set rather than
	// just the changed ones.
	Full      bool
	Counters  []CounterSample
	Gauges    []GaugeSample
	Summaries []SummarySample
}

// WireSize implements rpc.Sizer: a plain liveness beat is tiny, and each
// piggybacked sample costs roughly its key string plus a few varints.
func (h Heartbeat) WireSize() int {
	n := 24
	for _, s := range h.Counters {
		n += len(s.Key) + 10
	}
	for _, s := range h.Gauges {
		n += len(s.Key) + 9
	}
	for _, s := range h.Summaries {
		n += len(s.Key) + 50
	}
	return n
}

// CounterSample ships one counter series: its canonical registry key (as
// built by metrics.Key, worker label included) and its absolute value.
type CounterSample struct {
	Key   string
	Value int64
}

// GaugeSample ships one gauge series.
type GaugeSample struct {
	Key   string
	Value float64
}

// SummarySample ships the digest of one histogram series — workers keep the
// raw samples and send only the derived percentiles, so a heartbeat's size
// is independent of how many observations the histogram holds.
type SummarySample struct {
	Key   string
	Count int64
	Sum   float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

// RegisterWorker is a worker's explicit membership request: sent at
// startup and re-sent whenever the driver has been silent long enough to
// suggest it restarted and lost its membership table. Addr is the worker's
// advertised transport address so a recovered driver can dial back without
// any static -worker configuration. Registration is idempotent — a driver
// that already knows the worker ignores it.
type RegisterWorker struct {
	Worker rpc.NodeID
	Addr   string
}

// TakeCheckpoint asks a worker to snapshot the state of its terminal-stage
// partitions that have applied every batch up to and including UpTo.
type TakeCheckpoint struct {
	Job  string
	UpTo BatchID
}

// CheckpointData returns one partition's serialized state to the driver.
type CheckpointData struct {
	Job       string
	Stage     int
	Partition int
	UpTo      BatchID
	State     []byte
}

// WireSize implements rpc.Sizer.
func (c CheckpointData) WireSize() int { return 64 + len(c.State) }

// RestoreState installs a state snapshot on a worker, used when a terminal
// partition moves after a failure or elasticity event.
type RestoreState struct {
	Job       string
	Stage     int
	Partition int
	UpTo      BatchID
	State     []byte
}

// WireSize implements rpc.Sizer.
func (r RestoreState) WireSize() int { return 64 + len(r.State) }
