package bench

import (
	"fmt"
	"sync"
	"time"

	"drizzle/internal/continuous"
	"drizzle/internal/dag"
	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/streaming"
	"drizzle/internal/trace"
	"drizzle/internal/workload"
)

// StreamJob bundles the two shapes of an evaluation workload so the same
// bytes run through the micro-batch engines and the continuous engine.
type StreamJob struct {
	Name   string
	Source dag.SourceFunc
	Gen    continuous.GenFunc
	Parse  dag.NarrowOp
	Window time.Duration
}

// YahooStreamJob adapts the Yahoo benchmark.
func YahooStreamJob(y *workload.Yahoo) StreamJob {
	return StreamJob{
		Name:   "yahoo",
		Source: y.SourceFunc(),
		Gen:    y.Gen,
		Parse:  y.ParseFilterJoinOp(),
		Window: y.WindowSize(),
	}
}

// VideoStreamJob adapts the video analytics workload.
func VideoStreamJob(v *workload.Video) StreamJob {
	return StreamJob{
		Name:   "video",
		Source: v.SourceFunc(),
		Gen:    v.Gen,
		Parse:  v.ParseOp(),
		Window: v.WindowSize(),
	}
}

// StreamOpts configures one streaming run.
type StreamOpts struct {
	Workers          int
	SlotsPerWorker   int
	MapPartitions    int
	ReducePartitions int
	// Interval is the micro-batch duration T (per-system tuned, §5.3).
	Interval time.Duration
	// Batches is the micro-batch run length; Duration is the continuous
	// run length (derive one from the other with the same wall clock).
	Batches  int
	Duration time.Duration
	// Combine enables map-side partial aggregation (Figure 8 vs Figure 6).
	Combine bool
	// GroupSize for ModeDrizzle.
	GroupSize int
	Mode      engine.Mode
	AutoTune  bool
	// Warmup discards latency samples observed before this offset.
	Warmup time.Duration
	// FailAt kills one worker/machine at this offset (0 = no failure).
	FailAt time.Duration
	// AddWorkerAt adds one worker at this offset (0 = never).
	AddWorkerAt time.Duration
	// SlowWorkerAt slows one worker's task execution by SlowFactor at this
	// offset (0 = never): a straggler, not a failure — the worker stays
	// alive and heartbeating.
	SlowWorkerAt time.Duration
	// SlowFactor is the service-time multiplier for SlowWorkerAt.
	SlowFactor float64
	// Speculation enables straggler mitigation in the micro-batch engines.
	Speculation bool
	// Metrics, when set, is the registry the run's engine counters register
	// into — drizzle-bench serves it live behind -obs-addr, and GroupSweep
	// reads the per-group-size coordination/execution split back out of it.
	Metrics *metrics.Registry
	// Tracer, when set, records the run's micro-batch lifecycle spans.
	Tracer *trace.Tracer
}

// DefaultStreamOpts is the laptop-scale equivalent of the paper's cluster
// setup (see DESIGN.md substitutions for the calibration).
func DefaultStreamOpts() StreamOpts {
	return StreamOpts{
		Workers:          4,
		SlotsPerWorker:   4,
		MapPartitions:    8,
		ReducePartitions: 4,
		Interval:         100 * time.Millisecond,
		Batches:          60,
		Duration:         6 * time.Second,
		GroupSize:        10,
		Mode:             engine.ModeDrizzle,
		Warmup:           time.Second,
	}
}

// EC2LikeCosts emulates the driver-side scheduling cost of a large cluster
// on the in-process one: per-decision cost is scaled so that a BSP
// micro-batch pays on the order of 100ms of coordination, the regime the
// paper measures at 128 nodes (§5.2).
func EC2LikeCosts() engine.CostModel {
	return engine.CostModel{
		PerTaskSerialize: 8 * time.Millisecond,
		PerTaskCopy:      100 * time.Microsecond,
		PerMessage:       2 * time.Millisecond,
	}
}

// StreamResult is the outcome of one streaming run.
type StreamResult struct {
	System string
	Hist   *metrics.Histogram
	Series *metrics.TimeSeries
	Stats  *engine.RunStats // nil for the continuous engine
	// Stable reports whether the system kept up with the input rate (used
	// by the throughput-at-latency sweep).
	Stable bool
}

// RunMicroBatch executes the job on an in-process micro-batch cluster
// under the configured scheduling mode.
func RunMicroBatch(job StreamJob, o StreamOpts) (*StreamResult, error) {
	net := rpc.NewInMemNetwork(rpc.EC2LikeConfig())
	defer net.Close()
	reg := engine.NewRegistry()

	cfg := engine.DefaultConfig()
	cfg.Mode = o.Mode
	cfg.GroupSize = o.GroupSize
	cfg.AutoTune = o.AutoTune
	cfg.SlotsPerWorker = o.SlotsPerWorker
	cfg.CheckpointEvery = 1
	cfg.Costs = EC2LikeCosts()
	cfg.HeartbeatInterval = 25 * time.Millisecond
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	cfg.FetchTimeout = 500 * time.Millisecond
	cfg.StallResend = 3 * time.Second
	cfg.Speculation = o.Speculation
	cfg.Metrics = o.Metrics
	cfg.Tracer = o.Tracer

	var faults *rpc.FaultPlan
	if o.SlowWorkerAt > 0 {
		faults = rpc.NewFaultPlan(1)
		net.SetFaultPlan(faults)
	}

	driver := engine.NewDriver("driver", net, reg, cfg, nil)
	if err := driver.Start(); err != nil {
		return nil, err
	}
	defer driver.Stop()
	var workerMu sync.Mutex
	workers := make([]*engine.Worker, 0, o.Workers+1)
	for i := 0; i < o.Workers; i++ {
		w := engine.NewWorker(rpc.NodeID(fmt.Sprintf("w%d", i)), "driver", net, reg, cfg)
		if err := w.Start(); err != nil {
			return nil, err
		}
		workers = append(workers, w)
		driver.AddWorker(w.ID())
	}
	defer func() {
		workerMu.Lock()
		defer workerMu.Unlock()
		for _, w := range workers {
			w.Stop()
		}
	}()

	start := time.Now()
	hist := metrics.NewHistogram()
	series := metrics.NewTimeSeries()
	lat := streaming.NewLatencySink(hist, series, start).Warmup(o.Warmup)

	mode := streaming.NoCombine
	if o.Combine {
		mode = streaming.Combine
	}
	ctx := streaming.NewContext(job.Name, o.Interval)
	src := ctx.Source(o.MapPartitions, job.Source)
	if job.Parse != nil {
		src = src.Apply(job.Parse)
	}
	src.CountByKeyAndWindow(job.Window, o.ReducePartitions, mode).
		Sink(lat.Fn(job.Window))
	plan, err := ctx.Build()
	if err != nil {
		return nil, err
	}
	if err := reg.Register(job.Name, plan); err != nil {
		return nil, err
	}

	if o.FailAt > 0 {
		victim := workers[len(workers)-1]
		time.AfterFunc(o.FailAt, func() {
			net.Fail(victim.ID())
			go victim.Stop()
		})
	}
	if o.SlowWorkerAt > 0 {
		factor := o.SlowFactor
		if factor <= 1 {
			factor = 8
		}
		// Slow the first worker; FailAt targets the last, so the two faults
		// compose without colliding on a victim.
		victim := workers[0].ID()
		timer := time.AfterFunc(o.SlowWorkerAt, func() { faults.SetSlow(victim, factor) })
		defer timer.Stop()
	}
	if o.AddWorkerAt > 0 {
		timer := time.AfterFunc(o.AddWorkerAt, func() {
			w := engine.NewWorker("w-added", "driver", net, reg, cfg)
			if err := w.Start(); err == nil {
				workerMu.Lock()
				workers = append(workers, w)
				workerMu.Unlock()
				driver.AddWorker(w.ID())
			}
		})
		defer timer.Stop()
	}

	stats, err := driver.Run(job.Name, o.Batches)
	if err != nil {
		return nil, err
	}
	expected := time.Duration(o.Batches) * o.Interval
	var system string
	if o.Mode == engine.ModeDrizzle {
		system = fmt.Sprintf("drizzle(g=%d)", o.GroupSize)
	} else {
		system = "spark"
	}
	return &StreamResult{
		System: system,
		Hist:   hist,
		Series: series,
		Stats:  stats,
		// Stable: the run did not fall behind the input by more than a
		// third (driver wall time tracks batch deadlines when keeping up).
		Stable: stats.Wall <= expected+expected/3+200*time.Millisecond,
	}, nil
}

// RunContinuous executes the job on the continuous-operator engine.
func RunContinuous(job StreamJob, o StreamOpts) (*StreamResult, error) {
	start := time.Now()
	hist := metrics.NewHistogram()
	series := metrics.NewTimeSeries()
	lat := streaming.NewLatencySink(hist, series, start).Warmup(o.Warmup)

	ops := []dag.NarrowOp(nil)
	if job.Parse != nil {
		ops = append(ops, job.Parse)
	}
	top := continuous.Topology{
		Name:              job.Name,
		SourceParallelism: o.MapPartitions,
		Gen:               job.Gen,
		Ops:               ops,
		WindowParallelism: o.ReducePartitions,
		Window:            dag.WindowSpec{Size: job.Window},
		Reduce:            dag.Sum,
		Sink:              lat.Fn(job.Window),
	}
	cfg := continuous.DefaultConfig()
	cfg.CheckpointInterval = time.Second
	// Whole-topology recovery at cluster scale means redeploying every
	// operator; these constants model that cost (the paper measures ~10s+
	// of stop/restart for Flink on 128 nodes before replay even begins).
	cfg.DetectDelay = 500 * time.Millisecond
	cfg.RestartDelay = 2500 * time.Millisecond
	eng, err := continuous.NewEngine(top, cfg)
	if err != nil {
		return nil, err
	}
	if o.FailAt > 0 {
		time.AfterFunc(o.FailAt, func() { eng.KillMachine(0) })
	}
	eng.Run(o.Duration)

	// Stability: latency near the end must not have blown up relative to
	// the post-warmup steady state.
	early, okE := series.MaxValueBetween(o.Warmup, o.Duration/2)
	late, okL := series.MaxValueBetween(o.Duration*3/4, o.Duration+time.Hour)
	stable := okE && okL && late < early*3+100
	return &StreamResult{System: "flink", Hist: hist, Series: series, Stable: stable}, nil
}
