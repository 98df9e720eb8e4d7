// Package drizzle is the public API of the Drizzle reproduction: a
// micro-batch stream processing engine that decouples the processing
// interval from the coordination interval (Venkataraman et al., SOSP 2017).
//
// The package wraps the internal runtime with a small surface:
//
//   - Cluster: an in-process driver + N workers (optionally over real TCP
//     via the cmd/drizzle-driver and cmd/drizzle-worker daemons).
//   - Pipeline / Stream: a fluent builder for streaming jobs (sources,
//     map/filter/flatMap, windowed aggregation, sinks).
//   - Config: scheduling mode (BSP baseline vs Drizzle's group + pre-
//     scheduling), group size, AIMD auto-tuning, checkpointing.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	cluster, _ := drizzle.NewLocalCluster(4, drizzle.DefaultConfig())
//	defer cluster.Close()
//	p := drizzle.NewPipeline("counts", 100*time.Millisecond)
//	p.Source(8, src).CountByKeyAndWindow(time.Second, 4, drizzle.Combine).Sink(sink)
//	stats, _ := cluster.Run(p, 100) // 100 micro-batches
package drizzle

import (
	"fmt"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/engine"
	"drizzle/internal/groupsize"
	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/streaming"
)

// Re-exported building blocks. The aliases keep one definition of each
// type while giving users a single import.
type (
	// Record is the unit of data flowing through pipelines.
	Record = data.Record
	// BatchInfo describes the slice of input a source must produce.
	BatchInfo = dag.BatchInfo
	// SourceFunc generates one partition of one micro-batch. It must be
	// pure: recovery replays it.
	SourceFunc = dag.SourceFunc
	// SinkFunc consumes results of the terminal stage.
	SinkFunc = dag.SinkFunc
	// ReduceFunc merges two values of the same key; it must be commutative
	// and associative.
	ReduceFunc = dag.ReduceFunc
	// Pipeline builds a streaming job.
	Pipeline = streaming.Context
	// Stream is a handle on a pipeline under construction.
	Stream = streaming.Stream
	// CombineMode toggles map-side partial aggregation.
	CombineMode = streaming.CombineMode
	// Mode selects the scheduling discipline.
	Mode = engine.Mode
	// RunStats summarizes an execution.
	RunStats = engine.RunStats
	// Histogram records latency samples.
	Histogram = metrics.Histogram
	// LatencySink measures per-window processing latency.
	LatencySink = streaming.LatencySink
	// CollectSink accumulates windowed results idempotently.
	CollectSink = streaming.CollectSink
	// TunerConfig configures the AIMD group-size controller.
	TunerConfig = groupsize.Config
)

// Scheduling modes and combine toggles.
const (
	// ModeBSP schedules every stage of every micro-batch at the driver
	// (the Spark Streaming baseline).
	ModeBSP = engine.ModeBSP
	// ModeDrizzle enables group scheduling + pre-scheduling.
	ModeDrizzle = engine.ModeDrizzle
	// Combine enables map-side partial aggregation.
	Combine = streaming.Combine
	// NoCombine ships raw records to reducers.
	NoCombine = streaming.NoCombine
)

// Sum is the ReduceFunc for counting/summing aggregations.
func Sum(a, b int64) int64 { return dag.Sum(a, b) }

// Max is a ReduceFunc keeping the maximum.
func Max(a, b int64) int64 { return dag.Max(a, b) }

// HashKey maps a string key to the uint64 key space records use.
func HashKey(s string) uint64 { return data.HashString(s) }

// NewPipeline starts a pipeline with the given name and micro-batch
// interval.
func NewPipeline(name string, interval time.Duration) *Pipeline {
	return streaming.NewContext(name, interval)
}

// NewLatencySink returns a latency-measuring sink anchored at start.
func NewLatencySink(hist *Histogram, start time.Time) *LatencySink {
	return streaming.NewLatencySink(hist, nil, start)
}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram { return metrics.NewHistogram() }

// NewCollectSink returns an idempotent result collector.
func NewCollectSink() *CollectSink { return streaming.NewCollectSink() }

// Config selects the engine behavior for a cluster.
type Config struct {
	// Mode is the scheduling discipline (ModeDrizzle or ModeBSP).
	Mode Mode
	// GroupSize is the number of micro-batches scheduled per group in
	// ModeDrizzle (1 = pre-scheduling only).
	GroupSize int
	// AutoTune enables the AIMD group-size controller; Tuner (optional)
	// overrides its bounds.
	AutoTune bool
	Tuner    TunerConfig
	// SlotsPerWorker is the number of concurrent tasks per worker.
	SlotsPerWorker int
	// CheckpointEvery takes a state checkpoint every N groups (0 = every
	// group disabled; 1 is a sensible default for fault tolerance).
	CheckpointEvery int
	// CheckpointDir, when non-empty, persists checkpoints to a LogStore in
	// this directory instead of driver memory. Cluster.Close closes it.
	CheckpointDir string
	// EmulatedDecisionCost and EmulatedMessageCost inject driver-side
	// scheduling CPU per task decision and per control RPC, emulating the
	// coordination costs of a large cluster on an in-process one (see
	// DESIGN.md). Zero means no emulation — appropriate for production
	// use; the experiments and the autotune demo set them.
	EmulatedDecisionCost time.Duration
	EmulatedMessageCost  time.Duration
}

// DefaultConfig returns a Drizzle-mode configuration with a group of 10
// micro-batches and per-group checkpoints.
func DefaultConfig() Config {
	return Config{
		Mode:            ModeDrizzle,
		GroupSize:       10,
		SlotsPerWorker:  4,
		CheckpointEvery: 1,
	}
}

func (c Config) engineConfig() engine.Config {
	ec := engine.DefaultConfig()
	ec.Mode = c.Mode
	if c.GroupSize > 0 {
		ec.GroupSize = c.GroupSize
	}
	ec.AutoTune = c.AutoTune
	ec.Tuner = c.Tuner
	if c.SlotsPerWorker > 0 {
		ec.SlotsPerWorker = c.SlotsPerWorker
	}
	ec.CheckpointEvery = c.CheckpointEvery
	if c.EmulatedDecisionCost > 0 || c.EmulatedMessageCost > 0 {
		ec.Costs = engine.CostModel{
			PerTaskSerialize: c.EmulatedDecisionCost,
			PerTaskCopy:      c.EmulatedDecisionCost / 100,
			PerMessage:       c.EmulatedMessageCost,
		}
	}
	return ec
}

// Cluster is an in-process Drizzle deployment: one driver plus N workers
// connected by the in-memory transport.
type Cluster struct {
	net     *rpc.InMemNetwork
	reg     *engine.Registry
	driver  *engine.Driver
	workers map[rpc.NodeID]*engine.Worker
	cfg     engine.Config
	store   checkpoint.StateBackend
	nextID  int
}

// NewLocalCluster starts a driver and numWorkers workers in-process.
func NewLocalCluster(numWorkers int, cfg Config) (*Cluster, error) {
	if numWorkers <= 0 {
		return nil, fmt.Errorf("drizzle: need at least one worker")
	}
	ec := cfg.engineConfig()
	var store checkpoint.StateBackend = checkpoint.NewMemStore()
	if cfg.CheckpointDir != "" {
		ls, err := checkpoint.OpenLogStore(cfg.CheckpointDir, checkpoint.LogOptions{})
		if err != nil {
			return nil, err
		}
		store = ls
	}
	c := &Cluster{
		net:     rpc.NewInMemNetwork(rpc.InMemConfig{}),
		reg:     engine.NewRegistry(),
		workers: make(map[rpc.NodeID]*engine.Worker),
		cfg:     ec,
		store:   store,
	}
	c.driver = engine.NewDriver("driver", c.net, c.reg, ec, store)
	if err := c.driver.Start(); err != nil {
		c.net.Close()
		store.Close()
		return nil, err
	}
	for i := 0; i < numWorkers; i++ {
		if _, err := c.AddWorker(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddWorker starts one more worker and admits it (during a run, at the
// next group boundary). It returns the worker's id.
func (c *Cluster) AddWorker() (string, error) {
	id := rpc.NodeID(fmt.Sprintf("worker-%d", c.nextID))
	c.nextID++
	w := engine.NewWorker(id, c.driver.ID(), c.net, c.reg, c.cfg)
	if err := w.Start(); err != nil {
		return "", err
	}
	c.workers[id] = w
	c.driver.AddWorker(id)
	return string(id), nil
}

// RemoveWorker gracefully decommissions a worker at the next group
// boundary.
func (c *Cluster) RemoveWorker(id string) {
	c.driver.RemoveWorker(rpc.NodeID(id))
}

// KillWorker simulates a machine death: the worker's traffic is dropped
// and its process stops. The driver detects the failure via heartbeats and
// recovers (§3.3).
func (c *Cluster) KillWorker(id string) {
	nid := rpc.NodeID(id)
	c.net.Fail(nid)
	if w, ok := c.workers[nid]; ok {
		go w.Stop()
	}
}

// Workers lists the live workers.
func (c *Cluster) Workers() []string {
	var out []string
	for _, id := range c.driver.LiveWorkers() {
		out = append(out, string(id))
	}
	return out
}

// Run compiles and registers the pipeline, then executes numBatches
// micro-batches, blocking until completion.
func (c *Cluster) Run(p *Pipeline, numBatches int) (*RunStats, error) {
	job, err := p.Build()
	if err != nil {
		return nil, err
	}
	if err := c.reg.Register(job.Name, job); err != nil {
		return nil, err
	}
	return c.driver.Run(job.Name, numBatches)
}

// RunRegistered executes an already-registered job by name (used to re-run
// a pipeline on a cluster).
func (c *Cluster) RunRegistered(name string, numBatches int) (*RunStats, error) {
	return c.driver.Run(name, numBatches)
}

// Close stops every node and the network, and closes the checkpoint store.
func (c *Cluster) Close() {
	c.driver.Stop()
	for _, w := range c.workers {
		w.Stop()
	}
	c.net.Close()
	// Close has no error to return; every checkpoint barrier of a run has
	// already synced what the store holds.
	_ = c.store.Close()
}
