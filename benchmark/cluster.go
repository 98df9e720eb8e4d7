package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/dag"
	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

const driverID = rpc.NodeID("driver")

// tmpRoot is where durable workloads keep their WAL and checkpoint log. It
// is relative to the working directory so the benchmark never writes
// outside the checkout it runs in.
const tmpRoot = ".bench_build/tmp"

// clusterOpts is what distinguishes one cluster from another; everything
// else about the system under test is fixed in newCluster.
type clusterOpts struct {
	workers int
	durable bool
	// tracer and registry are set on traced runs only.
	tracer   *trace.Tracer
	registry *metrics.Registry
}

// worker is one worker node: its own transport bound to 127.0.0.1:0 and the
// engine worker on it.
type worker struct {
	id  rpc.NodeID
	net *rpc.TCPNetwork
	w   *engine.Worker
}

// cluster is the system under test: a driver and workers in one process,
// each node on its own TCP transport, talking over loopback sockets with
// the binary codec. One process, so that CPU time, sink timestamps and the
// reference computation need no IPC and a small box is not oversubscribed
// by several Go runtimes.
type cluster struct {
	cfg        engine.Config
	reg        *engine.Registry
	driverNet  *rpc.TCPNetwork
	driver     *engine.Driver
	driverAddr string
	workers    []*worker // every worker ever started, dead ones included
	nextWorker int

	dir   string // temp dir of a durable cluster, "" otherwise
	wal   *engine.DriverWAL
	store checkpoint.StateBackend
}

func tcpConfig(reg *metrics.Registry) rpc.TCPConfig {
	c := rpc.DefaultTCPConfig()
	c.Logger = obs.Discard()
	c.Metrics = reg
	return c
}

// newCluster is the only place a cluster is put together, so that a later
// change can swap the in-process workers for child processes here.
func newCluster(o clusterOpts, jobName string, job *dag.Job) (c *cluster, err error) {
	cfg := engine.DefaultConfig()
	cfg.Mode = engine.ModeDrizzle
	cfg.GroupSize = groupSize
	cfg.SlotsPerWorker = slotsPerWorker
	cfg.CheckpointEvery = 1
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.HeartbeatTimeout = 500 * time.Millisecond
	cfg.Logger = obs.Discard()
	cfg.Tracer = o.tracer
	cfg.Metrics = o.registry

	c = &cluster{cfg: cfg, reg: engine.NewRegistry()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := c.reg.Register(jobName, job); err != nil {
		return c, err
	}
	if o.durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return c, err
		}
		if c.dir, err = os.MkdirTemp(tmpRoot, "cluster-"); err != nil {
			return c, err
		}
		if c.wal, err = engine.OpenDriverWAL(filepath.Join(c.dir, "wal")); err != nil {
			return c, err
		}
		ls, err := checkpoint.OpenLogStore(filepath.Join(c.dir, "state"), checkpoint.LogOptions{})
		if err != nil {
			return c, err
		}
		c.store = ls
		c.cfg.WAL = c.wal
	} else {
		c.store = checkpoint.NewMemStore()
	}

	c.driverNet = rpc.NewTCPNetworkWithConfig(tcpConfig(o.registry))
	c.driver = engine.NewDriver(driverID, c.driverNet, c.reg, c.cfg, c.store)
	if err := c.driver.Start(); err != nil {
		return c, err
	}
	addr, ok := c.driverNet.Addr(driverID)
	if !ok {
		return c, fmt.Errorf("driver has no listen address")
	}
	c.driverAddr = addr
	for i := 0; i < o.workers; i++ {
		if err := c.addWorker(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// addWorker starts a fresh worker on its own transport and admits it; during
// a run it joins at the next group boundary.
func (c *cluster) addWorker() error {
	id := rpc.NodeID(fmt.Sprintf("w%d", c.nextWorker))
	c.nextWorker++
	wcfg := c.cfg
	wcfg.WAL = nil
	net := rpc.NewTCPNetworkWithConfig(tcpConfig(c.cfg.Metrics))
	net.Announce(driverID, c.driverAddr)
	w := engine.NewWorker(id, driverID, net, c.reg, wcfg)
	if err := w.Start(); err != nil {
		net.Close()
		return err
	}
	c.workers = append(c.workers, &worker{id: id, net: net, w: w})
	addr, ok := net.Addr(id)
	if !ok {
		return fmt.Errorf("worker %s has no listen address", id)
	}
	c.driver.AddWorkerAddr(id, addr)
	return nil
}

// kill severs worker i the way a machine loss does: its sockets close, the
// process stops, and nobody deregisters it. The driver finds out from the
// missing heartbeats.
func (c *cluster) kill(i int) {
	w := c.workers[i]
	w.net.Close()
	w.w.Stop()
}

// transportStats sums the counters of every node's transport.
func (c *cluster) transportStats() rpc.TCPStatsSnapshot {
	sum := c.driverNet.Stats()
	for _, w := range c.workers {
		s := w.net.Stats()
		sum.Sent += s.Sent
		sum.SendErrors += s.SendErrors
		sum.SocketWrites += s.SocketWrites
	}
	return sum
}

// close stops every node, closes every socket and file, and removes the
// temp dir. It is safe on a partly built cluster and on killed workers.
func (c *cluster) close() {
	if c.driver != nil {
		c.driver.Stop()
	}
	for _, w := range c.workers {
		w.w.Stop()
		w.net.Close()
	}
	if c.driverNet != nil {
		c.driverNet.Close()
	}
	if c.wal != nil {
		c.wal.Close()
	}
	if c.store != nil {
		c.store.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}
