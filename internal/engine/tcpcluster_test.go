package engine_test

import (
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"drizzle/internal/engine"
	"drizzle/internal/jobs"
	"drizzle/internal/rpc"
)

// TestTCPClusterMultiProcess is the end-to-end smoke test for the TCP data
// plane: an in-process driver and two real drizzle-worker OS processes talk
// over real sockets, run a windowed job to completion, and survive one
// worker being SIGKILLed mid-run. It exercises everything the in-memory
// harness cannot: gob framing across process boundaries, dial/redial of
// actual listeners, write deadlines against a peer that vanished without
// closing its socket, and recovery driven by real heartbeat loss.
func TestTCPClusterMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build worker binary")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "drizzle-worker")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/drizzle-worker")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drizzle-worker: %v\n%s", err, out)
	}

	cfg := engine.DefaultConfig()
	cfg.Mode = engine.ModeDrizzle
	cfg.GroupSize = 5
	cfg.CheckpointEvery = 1
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.HeartbeatTimeout = time.Second
	cfg.FetchTimeout = time.Second
	cfg.StallResend = 2 * time.Second
	cfg.MaxTaskAttempts = 10
	cfg.RetryDelay = 200 * time.Millisecond

	reg := engine.NewRegistry()
	if err := jobs.RegisterBuiltin(reg); err != nil {
		t.Fatal(err)
	}
	network := rpc.NewTCPNetwork()
	defer network.Close()
	network.SetListenAddr("driver", "127.0.0.1:0")
	driver := engine.NewDriver("driver", network, reg, cfg, nil)
	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	defer driver.Stop()
	driverAddr, ok := network.Addr("driver")
	if !ok {
		t.Fatal("driver did not record its listen address")
	}

	workers := make(map[string]*exec.Cmd, 2)
	addrs := make(map[string]string, 2)
	for _, id := range []string{"w0", "w1"} {
		addr := freePort(t)
		cmd := exec.Command(bin,
			"-id", id, "-listen", addr, "-driver", driverAddr,
			"-slots", "4", "-heartbeat", "100ms")
		cmd.Stdout = &procLog{t: t, id: id}
		cmd.Stderr = &procLog{t: t, id: id}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", id, err)
		}
		workers[id] = cmd
		addrs[id] = addr
	}
	defer func() {
		for _, cmd := range workers {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	for id, addr := range addrs {
		waitListening(t, id, addr)
		driver.AddWorkerAddr(rpc.NodeID(id), addr)
	}

	const batches = 25
	type runResult struct {
		stats *engine.RunStats
		err   error
	}
	done := make(chan runResult, 1)
	go func() {
		stats, err := driver.Run(jobs.WordCountDemo, batches)
		done <- runResult{stats, err}
	}()

	// Let the job make progress, then kill one worker outright: no FIN from
	// a clean shutdown, just a peer that stops reading and heartbeating.
	time.Sleep(time.Second)
	if err := workers["w1"].Process.Kill(); err != nil {
		t.Fatalf("killing w1: %v", err)
	}
	workers["w1"].Wait()
	t.Log("killed w1 mid-run")

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("run failed: %v", r.err)
		}
		if r.stats.Batches != batches {
			t.Fatalf("completed %d batches, want %d", r.stats.Batches, batches)
		}
		if r.stats.Failures < 1 {
			t.Fatalf("driver handled %d failures, want >= 1 (w1 was killed)", r.stats.Failures)
		}
		t.Logf("run complete: %d batches, %d failures handled, %d resubmits, wall %v",
			r.stats.Batches, r.stats.Failures, r.stats.Resubmits, r.stats.Wall.Round(time.Millisecond))
	case <-time.After(90 * time.Second):
		t.Fatal("run did not complete within 90s after worker kill")
	}
}

// TestTCPClusterSlowWorker runs a real straggler over real sockets: three
// worker processes, one started with -slowdown 40 so its task execution is
// stretched 40x while its heartbeats stay prompt. With speculation enabled
// the driver must finish every batch on time-ish, keep the speculation
// ledger balanced, and mark the slow process as unhealthy via the service
// time EWMA (the tasks here are too small for the absolute-runtime floor,
// so health-weighted placement is the mechanism under test, not the
// duration detector).
func TestTCPClusterSlowWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build worker binary")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "drizzle-worker")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/drizzle-worker")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drizzle-worker: %v\n%s", err, out)
	}

	cfg := engine.DefaultConfig()
	cfg.Mode = engine.ModeDrizzle
	cfg.GroupSize = 5
	cfg.CheckpointEvery = 1
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.HeartbeatTimeout = time.Second
	cfg.FetchTimeout = time.Second
	cfg.StallResend = 2 * time.Second
	cfg.MaxTaskAttempts = 10
	cfg.RetryDelay = 200 * time.Millisecond
	cfg.Speculation = true
	cfg.SpeculationMultiplier = 2
	cfg.SpeculationMinRuntime = 30 * time.Millisecond

	reg := engine.NewRegistry()
	if err := jobs.RegisterBuiltin(reg); err != nil {
		t.Fatal(err)
	}
	network := rpc.NewTCPNetwork()
	defer network.Close()
	network.SetListenAddr("driver", "127.0.0.1:0")
	driver := engine.NewDriver("driver", network, reg, cfg, nil)
	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	defer driver.Stop()
	driverAddr, ok := network.Addr("driver")
	if !ok {
		t.Fatal("driver did not record its listen address")
	}

	workers := make(map[string]*exec.Cmd, 3)
	addrs := make(map[string]string, 3)
	for _, id := range []string{"w0", "w1", "w2"} {
		addr := freePort(t)
		args := []string{
			"-id", id, "-listen", addr, "-driver", driverAddr,
			"-slots", "4", "-heartbeat", "100ms",
		}
		if id == "w2" {
			args = append(args, "-slowdown", "40")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &procLog{t: t, id: id}
		cmd.Stderr = &procLog{t: t, id: id}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", id, err)
		}
		workers[id] = cmd
		addrs[id] = addr
	}
	defer func() {
		for _, cmd := range workers {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	for id, addr := range addrs {
		waitListening(t, id, addr)
		driver.AddWorkerAddr(rpc.NodeID(id), addr)
	}

	const batches = 25
	type runResult struct {
		stats *engine.RunStats
		err   error
	}
	done := make(chan runResult, 1)
	go func() {
		stats, err := driver.Run(jobs.WordCountDemo, batches)
		done <- runResult{stats, err}
	}()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("run failed: %v", r.err)
		}
		if r.stats.Batches != batches {
			t.Fatalf("completed %d batches, want %d", r.stats.Batches, batches)
		}
		if r.stats.SpeculationLaunched != r.stats.SpeculationWon+r.stats.SpeculationWasted {
			t.Errorf("speculation ledger out of balance: launched=%d won=%d wasted=%d",
				r.stats.SpeculationLaunched, r.stats.SpeculationWon, r.stats.SpeculationWasted)
		}
		h, ok := r.stats.Health["w2"]
		if !ok {
			t.Fatalf("no health entry for slowed worker; health=%v", r.stats.Health)
		}
		// A 40x service-time ratio is far past the blacklist bound; the exact
		// terminal state depends on probation timing, but it must not be
		// fully healthy.
		if h.State == engine.WorkerHealthy {
			t.Errorf("worker slowed 40x finished fully healthy: %+v", h)
		}
		t.Logf("run complete: %d batches, spec launched=%d won=%d wasted=%d killed=%d, w2 health=%+v, wall %v",
			r.stats.Batches, r.stats.SpeculationLaunched, r.stats.SpeculationWon,
			r.stats.SpeculationWasted, r.stats.SpeculationKilled, h, r.stats.Wall.Round(time.Millisecond))
	case <-time.After(90 * time.Second):
		t.Fatal("run did not complete within 90s with a 40x slow worker")
	}
}

// freePort reserves an ephemeral localhost port and releases it for the
// worker process to bind. The tiny reuse race is acceptable in a test.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitListening blocks until the worker's listener accepts connections, so
// the driver is not admitted workers that are still booting.
func waitListening(t *testing.T, id, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("worker %s at %s never started listening", id, addr)
}

// procLog forwards a child process's output to the test log. All writes
// finish before the test returns: the deferred kill+Wait drains the exec
// package's pipe-copying goroutines.
type procLog struct {
	t  *testing.T
	id string
}

func (p *procLog) Write(b []byte) (int, error) {
	p.t.Logf("[%s] %s", p.id, b)
	return len(b), nil
}
