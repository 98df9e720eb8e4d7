// Command drizzle-worker runs one executor node of a real TCP cluster. See
// cmd/drizzle-driver for the full deployment walkthrough. With -obs-addr
// the worker serves its own /metrics, /metricsz, /tracez and pprof
// endpoints; worker-side spans (task, task.fetch, task.execute) appear here
// when the driver samples the owning group.
package main

import (
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drizzle/internal/engine"
	"drizzle/internal/jobs"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

func main() {
	var (
		id        = flag.String("id", "w0", "worker node id (unique per cluster)")
		listen    = flag.String("listen", "127.0.0.1:7101", "worker listen address")
		driver    = flag.String("driver", "127.0.0.1:7100", "driver address")
		slots     = flag.Int("slots", 4, "executor slots")
		heartbeat = flag.Duration("heartbeat", 200*time.Millisecond, "heartbeat interval (must be well under the driver's heartbeat timeout)")
		slowdown  = flag.Float64("slowdown", 0, "multiply this worker's task service time (testing aid for straggler mitigation; <=1 runs at full speed)")
		obsAddr   = flag.String("obs-addr", "", "observability HTTP address (/metrics, /metricsz, /tracez, pprof); empty disables")
	)
	flag.Parse()

	log := obs.Component(nil, "worker").With("node", *id)

	registry := metrics.NewRegistry()
	tracer := trace.New(*id, trace.DefaultCapacity)

	cfg := engine.DefaultConfig()
	cfg.SlotsPerWorker = *slots
	cfg.HeartbeatInterval = *heartbeat
	cfg.Slowdown = *slowdown
	// The address announced in RegisterWorker, so a driver recovering from a
	// crash-restart can dial this worker back without any -worker flags.
	cfg.AdvertiseAddr = *listen
	cfg.Metrics = registry
	cfg.Tracer = tracer

	health := obs.NewHealth()
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, obs.Options{Registry: registry, Tracer: tracer, Health: health})
		if err != nil {
			log.Error("observability server failed", "addr", *obsAddr, "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("observability endpoints up", "addr", srv.Addr())
	}

	reg := engine.NewRegistry()
	if err := jobs.RegisterBuiltin(reg); err != nil {
		log.Error("job registration failed", "err", err)
		os.Exit(1)
	}

	tcpCfg := rpc.DefaultTCPConfig()
	tcpCfg.Metrics = registry
	net := rpc.NewTCPNetworkWithConfig(tcpCfg)
	defer net.Close()
	net.SetListenAddr(rpc.NodeID(*id), *listen)
	net.Announce("driver", *driver)

	w := engine.NewWorker(rpc.NodeID(*id), "driver", net, reg, cfg)
	if err := w.Start(); err != nil {
		log.Error("worker start failed", "err", err)
		os.Exit(1)
	}
	health.SetServing()
	log.Info("listening", "addr", *listen, "driver", *driver)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	health.SetDraining()
	log.Info("shutting down")
	w.Stop()
}
