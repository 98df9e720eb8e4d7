package bench

import (
	"fmt"
	"strings"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/streaming"
	"drizzle/internal/workload"
)

// GroupSweepOpts configures the group-size ablation on the real engine.
type GroupSweepOpts struct {
	Yahoo  YahooOpts
	Groups []int
}

// DefaultGroupSweepOpts sweeps the group sizes the paper's microbenchmarks
// use, plus pre-scheduling-only.
func DefaultGroupSweepOpts() GroupSweepOpts {
	return GroupSweepOpts{
		Yahoo:  DefaultYahooOpts(),
		Groups: []int{1, 5, 10, 25, 50},
	}
}

// GroupSweep is the design-choice ablation DESIGN.md calls out: the same
// Yahoo workload on the real engine at increasing group sizes, reporting
// coordination share and latency. Small groups coordinate constantly
// (high overhead, fast adaptation); large groups amortize it (§3.4's
// trade-off, measured end to end rather than in the simulator).
func GroupSweep(o GroupSweepOpts) (*Report, error) {
	r := NewReport("Group-size ablation",
		"Yahoo benchmark on the real engine: coordination share and latency vs group size")
	y := workload.NewYahoo(func() workload.YahooConfig {
		c := workload.DefaultYahooConfig()
		c.EventsPerSecPerPartition = o.Yahoo.RatePerPartition
		return c
	}())
	job := YahooStreamJob(y)
	// The split comes out of the metrics registry rather than RunStats: the
	// driver accumulates drizzle_driver_{coord,exec}_nanos_total labeled by
	// group size, and a snapshot delta isolates each run's contribution even
	// on a shared (live-served) registry.
	reg := o.Yahoo.Stream.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r.Printf("%-8s %12s %12s %10s %10s %10s", "group", "coordination", "execution", "overhead", "p50", "p95")
	for _, g := range o.Groups {
		s := o.Yahoo.Stream
		s.Mode = engine.ModeDrizzle
		s.GroupSize = g
		s.Metrics = reg
		prev := reg.Snapshot()
		res, err := RunMicroBatch(job, s)
		if err != nil {
			return nil, err
		}
		coord, exec := coordExecSplit(reg.Snapshot().Delta(prev))
		total := coord + exec
		share := 0.0
		if total > 0 {
			share = float64(coord) / float64(total)
		}
		r.Printf("%-8d %12v %12v %9.1f%% %9.1fms %9.1fms",
			g, coord.Round(time.Millisecond), exec.Round(time.Millisecond), share*100,
			res.Hist.Quantile(0.5), res.Hist.Quantile(0.95))
		r.Record(key("coord-ms", g), ms(coord))
		r.Record(key("exec-ms", g), ms(exec))
		r.Record(key("overhead", g), share)
		r.Record(key("p50", g), res.Hist.Quantile(0.5))
	}
	r.Printf("")
	r.Printf("larger groups amortize coordination; the AIMD tuner picks the smallest group inside the overhead band")
	return r, nil
}

// coordExecSplit sums the driver's coordination and execution counters
// across group-size labels (a run whose batch count is not divisible by the
// group size finishes with a smaller final group under its own label).
func coordExecSplit(d metrics.Snapshot) (coord, exec time.Duration) {
	for k, v := range d.Counters {
		switch {
		case strings.HasPrefix(k, "drizzle_driver_coord_nanos_total"):
			coord += time.Duration(v)
		case strings.HasPrefix(k, "drizzle_driver_exec_nanos_total"):
			exec += time.Duration(v)
		}
	}
	return coord, exec
}

// TreeAggregationAblation compares the §3.6 treeReduce communication
// structure against a flat 2-stage aggregation on the real engine: the
// structured version's pre-scheduled tasks wait on fan-in notifications
// instead of one per upstream partition.
func TreeAggregationAblation(o YahooOpts) (*Report, error) {
	r := NewReport("Tree aggregation (§3.6)",
		"Per-batch global aggregate: flat 2-stage shuffle vs treeReduce communication structure")
	flat, err := runAggregation(o, false)
	if err != nil {
		return nil, err
	}
	tree, err := runAggregation(o, true)
	if err != nil {
		return nil, err
	}
	r.Printf("%-12s %14s %14s", "variant", "wall/batch", "task p95 (ms)")
	r.Printf("%-12s %14v %14.2f", "flat", flat.Stats.Wall/time.Duration(flat.Stats.Batches), flat.Stats.TaskRun.Quantile(0.95))
	r.Printf("%-12s %14v %14.2f", "tree", tree.Stats.Wall/time.Duration(tree.Stats.Batches), tree.Stats.TaskRun.Quantile(0.95))
	r.Record("flat/taskp95", flat.Stats.TaskRun.Quantile(0.95))
	r.Record("tree/taskp95", tree.Stats.TaskRun.Quantile(0.95))
	return r, nil
}

// runAggregation executes a per-batch global sum over 16 source partitions
// either as a flat 2-stage shuffle (single reducer awaiting 16
// notifications) or as a fan-in-4 reduction tree.
func runAggregation(o YahooOpts, tree bool) (*StreamResult, error) {
	net := rpc.NewInMemNetwork(rpc.EC2LikeConfig())
	defer net.Close()
	reg := engine.NewRegistry()
	cfg := engine.DefaultConfig()
	cfg.Mode = engine.ModeDrizzle
	cfg.GroupSize = o.DrizzleGroup
	cfg.Costs = EC2LikeCosts()

	driver := engine.NewDriver("driver", net, reg, cfg, nil)
	if err := driver.Start(); err != nil {
		return nil, err
	}
	defer driver.Stop()
	var workers []*engine.Worker
	for i := 0; i < o.Stream.Workers; i++ {
		w := engine.NewWorker(rpc.NodeID(fmt.Sprintf("w%d", i)), "driver", net, reg, cfg)
		if err := w.Start(); err != nil {
			return nil, err
		}
		workers = append(workers, w)
		driver.AddWorker(w.ID())
	}
	defer func() {
		for _, w := range workers {
			w.Stop()
		}
	}()

	src := workload.SumSourceFunc(workload.SumConfig{NumbersPerTask: 20000, Seed: 11})
	name := "agg-flat"
	if tree {
		name = "agg-tree"
	}
	ctx := streaming.NewContext(name, o.Stream.Interval)
	s := ctx.Source(16, src).
		Map(func(r data.Record) data.Record { r.Key = 1; return r })
	if tree {
		s = s.TreeReduce(dag.Sum, 4)
	} else {
		s = s.ReduceByKey(dag.Sum, 1, streaming.Combine)
	}
	s.Sink(func(int64, int, []data.Record) {})
	plan, err := ctx.Build()
	if err != nil {
		return nil, err
	}
	if err := reg.Register(name, plan); err != nil {
		return nil, err
	}
	stats, err := driver.Run(name, o.Stream.Batches)
	if err != nil {
		return nil, err
	}
	return &StreamResult{System: name, Stats: stats, Hist: stats.TaskRun}, nil
}
