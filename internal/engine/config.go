// Package engine is the distributed micro-batch execution runtime: a
// centralized driver, workers with executor slots and worker-local
// schedulers, the shuffle data plane, and fault recovery. It executes the
// same logical plans under three scheduling disciplines so the paper's
// systems can be compared apples-to-apples:
//
//   - ModeBSP reproduces Spark Streaming's coordination pattern (Figure 1):
//     every stage of every micro-batch is planned at the driver, with a
//     barrier collecting map-output metadata before reducers launch.
//   - ModeDrizzle with GroupSize 1 is pre-scheduling only (§3.2): both
//     stages of a micro-batch launch up front and workers exchange
//     data-ready notifications directly, but micro-batches still barrier at
//     the driver.
//   - ModeDrizzle with GroupSize g > 1 adds group scheduling (§3.1): one
//     scheduling decision and one launch RPC per worker covers g
//     micro-batches, and the driver coordinates only at group boundaries.
package engine

import (
	"log/slog"
	"time"

	"drizzle/internal/groupsize"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/trace"
)

// Mode selects the scheduling discipline.
type Mode int

const (
	// ModeBSP is per-micro-batch, per-stage centralized scheduling.
	ModeBSP Mode = iota
	// ModeDrizzle is pre-scheduling plus group scheduling.
	ModeDrizzle
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBSP:
		return "bsp"
	case ModeDrizzle:
		return "drizzle"
	default:
		return "unknown"
	}
}

// CostModel emulates the driver-side costs that dominate centralized
// scheduling at scale (§2.2): CPU time to serialize each task descriptor
// and per-RPC overhead. On a laptop these are nanoseconds; on the paper's
// 128-node cluster they reach ~195 ms per micro-batch, so experiments
// install non-zero values (see DESIGN.md, substitutions). The costs are
// charged identically in every mode — group scheduling wins by paying them
// once per group, not by paying less per task.
type CostModel struct {
	// PerTaskSerialize is driver CPU charged per full scheduling decision:
	// assignment, locality, serialization of one task descriptor.
	PerTaskSerialize time.Duration
	// PerTaskCopy is driver CPU charged per task instance whose scheduling
	// decision is *reused* from the group's first micro-batch (§3.1) —
	// orders of magnitude cheaper than a fresh decision.
	PerTaskCopy time.Duration
	// PerMessage is driver CPU charged per control RPC sent.
	PerMessage time.Duration
}

// LaunchCost returns the driver-side cost of one scheduling event that
// makes `decisions` fresh decisions, reuses them for `copies` additional
// task instances, and sends `messages` RPCs.
func (c CostModel) LaunchCost(decisions, copies, messages int) time.Duration {
	return time.Duration(decisions)*c.PerTaskSerialize +
		time.Duration(copies)*c.PerTaskCopy +
		time.Duration(messages)*c.PerMessage
}

// Config parameterizes a cluster (driver + workers).
type Config struct {
	// Mode selects BSP or Drizzle scheduling.
	Mode Mode
	// GroupSize is the number of micro-batches per scheduling group in
	// ModeDrizzle (1 = pre-scheduling only). Ignored in ModeBSP.
	GroupSize int
	// AutoTune enables the AIMD group-size tuner (§3.4), overriding
	// GroupSize after the first group.
	AutoTune bool
	// Tuner configures the AIMD controller when AutoTune is set.
	Tuner groupsize.Config

	// SlotsPerWorker is the number of concurrent task slots per worker
	// (the paper's experiments use 4, matching r3.xlarge cores).
	SlotsPerWorker int
	// CheckpointEvery takes a synchronous state checkpoint every N groups
	// (BSP: every N micro-batches). 0 disables periodic checkpoints
	// (membership changes still checkpoint).
	CheckpointEvery int

	// HeartbeatInterval is how often workers report liveness.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the driver waits before declaring a
	// silent worker dead.
	HeartbeatTimeout time.Duration
	// FetchTimeout bounds a shuffle fetch before the task reports failure.
	FetchTimeout time.Duration
	// StallResend is a safety net: if a group makes no progress for this
	// long, the driver re-sends descriptors for incomplete tasks with its
	// best-known dependency locations. 0 picks a default.
	StallResend time.Duration
	// MaxTaskAttempts aborts the run when a single task fails this many
	// times (a correctness bug, not a transient).
	MaxTaskAttempts int
	// RetryDelay is how long the driver waits before re-submitting a
	// failed task, giving failure detection time to update placement and
	// lineage so the retry does not chase the same dead machine.
	RetryDelay time.Duration

	// Speculation enables straggler mitigation: tasks running far beyond
	// the median task duration get a speculative copy on a different
	// healthy worker, first result wins, the loser is killed. The state
	// store's batch dedup keeps windowed results exactly-once despite
	// duplicate completions.
	Speculation bool
	// SpeculationMultiplier flags a running task as a straggler once its
	// elapsed time exceeds this multiple of the median completed-task
	// duration. Lower is more aggressive; 2.0 is a reasonable default —
	// see README for tuning guidance.
	SpeculationMultiplier float64
	// SpeculationMinRuntime is a floor under the straggler threshold so
	// sub-millisecond tasks never look like stragglers just because the
	// median is tiny.
	SpeculationMinRuntime time.Duration

	// Slowdown multiplies this worker's task service time (testing aid for
	// the multi-process cluster: a real slow process, not an emulated one).
	// Values <= 1 mean run at full speed. The in-memory chaos harness
	// injects the same fault through the transport's fault plan instead.
	Slowdown float64

	// WAL, when non-nil, is the driver's write-ahead log: job starts,
	// group commits, and membership epochs are recorded so a crashed
	// driver restarted against the same directory resumes the run instead
	// of starting over. Nil (the default) keeps the driver stateless
	// across restarts, as before.
	WAL *DriverWAL
	// RecoverWait bounds how long a recovering driver (WAL set) waits for
	// workers to (re-)register before giving up with "no live workers".
	// Fresh runs without a WAL fail immediately, as before.
	RecoverWait time.Duration
	// AdvertiseAddr is the transport address a worker announces in
	// RegisterWorker so a recovered driver can dial it back. Empty on
	// in-memory networks, where node IDs route directly.
	AdvertiseAddr string

	// Costs emulates driver-side scheduling costs.
	Costs CostModel

	// Tracer records micro-batch lifecycle spans. Nil disables tracing
	// (every instrumentation site is nil-safe and costs a predicted branch).
	Tracer *trace.Tracer
	// Metrics is the registry engine counters/gauges/histograms register
	// into. Nil-safe: without a registry, instruments still work but are
	// not exported.
	Metrics *metrics.Registry
	// Logger is the base structured logger; the driver and workers scope it
	// per component. Nil picks the default stderr text logger.
	Logger *slog.Logger
}

// DefaultConfig returns a Config suitable for in-process tests: Drizzle
// mode, small group, fast heartbeats, no emulated costs.
func DefaultConfig() Config {
	return Config{
		Mode:              ModeDrizzle,
		GroupSize:         5,
		SlotsPerWorker:    4,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		FetchTimeout:      2 * time.Second,
		MaxTaskAttempts:   5,
	}
}

func (c Config) withDefaults() Config {
	if c.GroupSize <= 0 {
		c.GroupSize = 1
	}
	if c.SlotsPerWorker <= 0 {
		c.SlotsPerWorker = 4
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 8 * c.HeartbeatInterval
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.StallResend <= 0 {
		c.StallResend = 5 * time.Second
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = 5
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = c.HeartbeatTimeout / 2
	}
	if c.SpeculationMultiplier <= 1 {
		c.SpeculationMultiplier = 2.0
	}
	if c.SpeculationMinRuntime <= 0 {
		c.SpeculationMinRuntime = 30 * time.Millisecond
	}
	if c.RecoverWait <= 0 {
		c.RecoverWait = 2 * c.HeartbeatTimeout
	}
	if c.Logger == nil {
		c.Logger = obs.Default()
	}
	return c
}

// Knobs derived from the configured ones. Each is what withDefaults filled
// in when it was a Config field of its own that nothing set.

// reRegisterAfter is how long a worker tolerates driver silence before
// re-sending RegisterWorker — the path by which a restarted driver
// relearns its workers.
func (c Config) reRegisterAfter() time.Duration { return 4 * c.HeartbeatInterval }

// metricEvictAfter is how long the driver keeps a departed worker's
// mirrored series before evicting them from its registry, bounding label
// cardinality across join/kill churn.
func (c Config) metricEvictAfter() time.Duration { return 5 * c.HeartbeatTimeout }

// sloQueueDepthMax flags worker_saturated when a worker's shipped queue
// depth sustains at or above this many tasks.
func (c Config) sloQueueDepthMax() int { return 2 * c.SlotsPerWorker }

// sloMinBacklog is the backlog (batches behind wall clock) below which
// backlog_growing is never raised.
func (c Config) sloMinBacklog() int { return 2 * c.GroupSize }

// telemetryInterval is the driver's time-series history tick: how often
// the registry is snapshotted into the per-series ring behind /timeseriesz
// and the SLO watcher.
func (c Config) telemetryInterval() time.Duration { return 5 * c.HeartbeatInterval }

// sloCooldown rate-limits repeated emission of the same SLO event kind.
func (c Config) sloCooldown() time.Duration { return 10 * c.telemetryInterval() }
