// Command drizzle-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	drizzle-bench -experiment fig4a
//	drizzle-bench -experiment all
//	drizzle-bench -experiment fig6b -quick
//
// Microbenchmarks (table2, fig4a, fig4b, fig5a, fig5b) run on the
// discrete-event cluster simulator and finish in seconds; the streaming
// experiments (fig6a, fig6b, fig7, fig8a, fig8b, fig9, tuner, elasticity)
// run real in-process clusters in real time and take tens of seconds each
// (-quick shrinks them). See EXPERIMENTS.md for paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drizzle/internal/bench"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/trace"
)

// obsRegistry and obsTracer, when -obs-addr is set, are shared by every
// streaming experiment in the run so the live endpoints show counters and
// spans while the benchmarks execute.
var (
	obsRegistry *metrics.Registry
	obsTracer   *trace.Tracer
)

type experiment struct {
	name string
	desc string
	run  func(quick bool) (*bench.Report, error)
}

func microOpts(quick bool) bench.MicrobenchOpts {
	o := bench.DefaultMicrobenchOpts()
	if quick {
		o.Machines = []int{4, 16, 64, 128}
		o.Batches = 30
	}
	return o
}

func yahooOpts(quick bool) bench.YahooOpts {
	o := bench.DefaultYahooOpts()
	if quick {
		o.Stream.Batches = 40
		o.Stream.Warmup = 500 * time.Millisecond
		o.RatePerPartition = 5000
	} else {
		o.Stream.Batches = 150
		o.Stream.Warmup = 2 * time.Second
	}
	o.Stream.Metrics = obsRegistry
	o.Stream.Tracer = obsTracer
	return o
}

func throughputOpts(quick bool) bench.ThroughputOpts {
	o := bench.DefaultThroughputOpts()
	o.Yahoo = yahooOpts(quick)
	if quick {
		o.RatesPerPartition = []int{5000, 20000, 60000}
	}
	return o
}

func experiments() []experiment {
	return []experiment{
		{"table2", "Aggregate breakdown of the synthetic query corpus (§3.5)", func(quick bool) (*bench.Report, error) {
			n := 900000
			if quick {
				n = 100000
			}
			return bench.Table2(n, 1), nil
		}},
		{"fig4a", "Group scheduling weak scaling, single stage (§5.2.1)", func(q bool) (*bench.Report, error) {
			return bench.Fig4a(microOpts(q))
		}},
		{"fig4b", "Per-task time breakdown at 128 machines (§5.2.1)", func(q bool) (*bench.Report, error) {
			return bench.Fig4b(microOpts(q))
		}},
		{"fig5a", "Weak scaling with 100x data per partition (§5.2.1)", func(q bool) (*bench.Report, error) {
			return bench.Fig5a(microOpts(q))
		}},
		{"fig5b", "Pre-scheduling with a shuffle stage (§5.2.2)", func(q bool) (*bench.Report, error) {
			return bench.Fig5b(microOpts(q))
		}},
		{"fig6a", "Yahoo benchmark latency CDF, groupBy path (§5.3)", func(q bool) (*bench.Report, error) {
			return bench.Fig6a(yahooOpts(q))
		}},
		{"fig6b", "Throughput at latency targets, groupBy path (§5.3)", func(q bool) (*bench.Report, error) {
			return bench.Fig6b(throughputOpts(q))
		}},
		{"fig7", "Latency timeline across a machine failure (§5.3)", func(q bool) (*bench.Report, error) {
			o := yahooOpts(q)
			if q {
				// The continuous engine's recovery cycle takes ~3s; keep
				// the run long enough to observe it even in quick mode.
				o.Stream.Batches = 100
			} else {
				o.Stream.Batches = 250
			}
			return bench.Fig7(o)
		}},
		{"fig8a", "Latency CDF with micro-batch optimization (§5.4)", func(q bool) (*bench.Report, error) {
			return bench.Fig8a(yahooOpts(q))
		}},
		{"fig8b", "Throughput at latency targets with optimization (§5.4)", func(q bool) (*bench.Report, error) {
			return bench.Fig8b(throughputOpts(q))
		}},
		{"fig9", "Drizzle on Yahoo vs video-session analytics (§5.3)", func(q bool) (*bench.Report, error) {
			return bench.Fig9(yahooOpts(q))
		}},
		{"tuner", "AIMD group-size tuning trace (§3.4)", func(q bool) (*bench.Report, error) {
			return bench.TunerExperiment(yahooOpts(q))
		}},
		{"elasticity", "Scale-up at a group boundary (§3.3)", func(q bool) (*bench.Report, error) {
			return bench.ElasticityExperiment(yahooOpts(q))
		}},
		{"straggler", "Straggler mitigation: one worker slowed 8x, speculation off vs on", func(q bool) (*bench.Report, error) {
			return bench.StragglerExperiment(yahooOpts(q))
		}},
		{"groupsweep", "Group-size ablation on the real engine (§3.1/§3.4)", func(q bool) (*bench.Report, error) {
			o := bench.DefaultGroupSweepOpts()
			o.Yahoo = yahooOpts(q)
			if q {
				o.Groups = []int{1, 10, 25}
			}
			return bench.GroupSweep(o)
		}},
		{"treeagg", "Tree aggregation vs flat shuffle (§3.6)", func(q bool) (*bench.Report, error) {
			return bench.TreeAggregationAblation(yahooOpts(q))
		}},
	}
}

func main() {
	var (
		name    = flag.String("experiment", "all", "experiment to run (all, list, or one of the ids)")
		quick   = flag.Bool("quick", false, "reduced-scale runs for a fast pass")
		obsAddr = flag.String("obs-addr", "", "observability HTTP address (/metrics, /metricsz, /tracez, pprof); empty disables")
	)
	flag.Parse()

	if *obsAddr != "" {
		obsRegistry = metrics.NewRegistry()
		obsTracer = trace.New("bench", trace.DefaultCapacity)
		srv, err := obs.Serve(*obsAddr, obs.Options{Registry: obsRegistry, Tracer: obsTracer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability endpoints on http://%s (metrics, metricsz, tracez, debug/pprof)\n", srv.Addr())
	}

	exps := experiments()
	if *name == "list" {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *name != "all" && !strings.EqualFold(*name, e.name) {
			continue
		}
		ran++
		start := time.Now()
		rep, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -experiment list)\n", *name)
		os.Exit(1)
	}
}
