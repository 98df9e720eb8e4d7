// Command drizzle-driver runs the centralized scheduler of a real TCP
// cluster. Start workers first (cmd/drizzle-worker), then the driver:
//
//	drizzle-worker -id w0 -listen 127.0.0.1:7101 -driver 127.0.0.1:7100 &
//	drizzle-worker -id w1 -listen 127.0.0.1:7102 -driver 127.0.0.1:7100 &
//	drizzle-driver -listen 127.0.0.1:7100 \
//	    -worker w0=127.0.0.1:7101 -worker w1=127.0.0.1:7102 \
//	    -job yahoo-demo -batches 100 -mode drizzle -group 10
//
// Jobs are built-in (see internal/jobs): plans contain closures, so every
// process registers the same plans by name and only the name travels.
//
// With -obs-addr the driver serves live observability endpoints (/metrics,
// /metricsz, /tracez, /debug/pprof/); -trace-out writes the run's span ring
// as a Chrome trace (load it at https://ui.perfetto.dev) on exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/engine"
	"drizzle/internal/jobs"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }
func (w *workerList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("worker spec %q is not id=addr", v)
	}
	*w = append(*w, v)
	return nil
}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7100", "driver listen address")
		job      = flag.String("job", jobs.YahooDemo, "built-in job to run")
		batches  = flag.Int("batches", 100, "micro-batches to execute")
		mode     = flag.String("mode", "drizzle", "scheduling mode: drizzle or bsp")
		group    = flag.Int("group", 10, "group size (drizzle mode)")
		tune     = flag.Bool("autotune", false, "enable AIMD group-size tuning")
		spec     = flag.Bool("speculation", false, "enable straggler mitigation (speculative copies + health-weighted placement)")
		obsAddr  = flag.String("obs-addr", "", "observability HTTP address (/metrics, /metricsz, /tracez, pprof); empty disables")
		traceOut = flag.String("trace-out", "", "write the run's spans as a Chrome trace (Perfetto-loadable) to this file on exit")
		sample   = flag.Int("trace-sample", 1, "trace every Nth scheduling group (1 = all, 0 = none)")
		ckptDir  = flag.String("ckpt-dir", "", "durable state directory: WAL + incremental on-disk checkpoints; a driver restarted against the same directory resumes the interrupted run, re-learning its workers from the WAL and their re-registration (-worker flags become optional)")
		workers  workerList
	)
	flag.Var(&workers, "worker", "worker id=addr (repeatable)")
	flag.Parse()

	log := obs.Component(nil, "driver")
	if len(workers) == 0 && *ckptDir == "" {
		log.Error("at least one -worker id=addr is required (a recovering driver with -ckpt-dir may omit them)")
		os.Exit(1)
	}
	cfg := engine.DefaultConfig()
	cfg.GroupSize = *group
	cfg.AutoTune = *tune
	cfg.Speculation = *spec
	cfg.CheckpointEvery = 1
	cfg.HeartbeatInterval = 200 * time.Millisecond
	cfg.HeartbeatTimeout = 2 * time.Second
	switch *mode {
	case "drizzle":
		cfg.Mode = engine.ModeDrizzle
	case "bsp":
		cfg.Mode = engine.ModeBSP
	default:
		log.Error("unknown mode", "mode", *mode)
		os.Exit(1)
	}

	registry := metrics.NewRegistry()
	tracer := trace.New("driver", trace.DefaultCapacity)
	tracer.SetSampleEvery(*sample)
	cfg.Metrics = registry
	cfg.Tracer = tracer

	reg := engine.NewRegistry()
	if err := jobs.RegisterBuiltin(reg); err != nil {
		log.Error("job registration failed", "err", err)
		os.Exit(1)
	}

	tcpCfg := rpc.DefaultTCPConfig()
	tcpCfg.Metrics = registry
	net := rpc.NewTCPNetworkWithConfig(tcpCfg)
	defer net.Close()
	net.SetListenAddr("driver", *listen)

	var store checkpoint.StateBackend
	if *ckptDir != "" {
		wal, err := engine.OpenDriverWAL(filepath.Join(*ckptDir, "wal"))
		if err != nil {
			log.Error("driver wal open failed", "dir", *ckptDir, "err", err)
			os.Exit(1)
		}
		defer wal.Close()
		cfg.WAL = wal
		ls, err := checkpoint.OpenLogStore(filepath.Join(*ckptDir, "state"), checkpoint.LogOptions{})
		if err != nil {
			log.Error("checkpoint log open failed", "dir", *ckptDir, "err", err)
			os.Exit(1)
		}
		defer ls.Close()
		ls.Instrument(registry)
		store = ls
		if st := wal.State(); st.HasJob && !st.Done {
			log.Info("recovered driver state",
				"job", st.Job, "committed", st.Committed, "epoch", st.Epoch,
				"workers", len(st.Workers), "corrupt_records", st.Corrupt)
		}
	}
	driver := engine.NewDriver("driver", net, reg, cfg, store)

	// The obs server starts after the driver exists so /timeseriesz can
	// serve the driver's history ring (which also carries the mirrored
	// per-worker series shipped over heartbeats).
	health := obs.NewHealth()
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, obs.Options{
			Registry: registry, Tracer: tracer,
			History: driver.History(), Health: health,
		})
		if err != nil {
			log.Error("observability server failed", "addr", *obsAddr, "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("observability endpoints up", "addr", srv.Addr())
	}

	if err := driver.Start(); err != nil {
		log.Error("driver start failed", "err", err)
		os.Exit(1)
	}
	defer driver.Stop()

	for _, spec := range workers {
		parts := strings.SplitN(spec, "=", 2)
		driver.AddWorkerAddr(rpc.NodeID(parts[0]), parts[1])
		log.Info("admitted worker", "worker", parts[0], "addr", parts[1])
	}

	health.SetServing()
	log.Info("run starting", "job", *job, "batches", *batches, "mode", *mode, "group", *group)
	stats, err := driver.Run(*job, *batches)
	health.SetDraining()
	if *traceOut != "" {
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			log.Error("trace export failed", "path", *traceOut, "err", werr)
		} else {
			log.Info("trace written", "path", *traceOut, "spans", tracer.Len())
		}
	}
	if err != nil {
		log.Error("run failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("completed %d batches in %v start_nanos=%d\n",
		stats.Batches, stats.Wall.Round(time.Millisecond), stats.StartNanos)
	if ls, ok := store.(*checkpoint.LogStore); ok {
		st := ls.Stats()
		fmt.Printf("checkpoint volume: %d full records (%d B), %d delta records (%d B), %d compactions, %d corrupt\n",
			st.FullRecords, st.FullBytes, st.DeltaRecords, st.DeltaBytes, st.Compactions, st.Corrupt)
	}
	fmt.Printf("coordination %v, execution %v, groups %v\n",
		stats.Coord.Round(time.Millisecond), stats.Exec.Round(time.Millisecond), stats.Groups)
	fmt.Printf("task run times: %s\n", stats.TaskRun.Summary())
	if cfg.Speculation {
		fmt.Printf("speculation: launched %d, won %d, wasted %d, killed %d\n",
			stats.SpeculationLaunched, stats.SpeculationWon, stats.SpeculationWasted, stats.SpeculationKilled)
	}
	if len(stats.TunerTrace) > 0 {
		last := stats.TunerTrace[len(stats.TunerTrace)-1]
		fmt.Printf("tuner: final group %d at %.1f%% overhead\n", last.Group, last.Overhead*100)
	}
}

func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, tr.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
