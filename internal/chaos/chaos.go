// Package chaos is the deterministic fault-injection harness for the
// engine. A Scenario describes a windowed streaming job, a set of
// probabilistic link faults (rpc.FaultPlan rules), and a timeline of
// structural events (worker kills, late joins, one-way partitions). Run
// executes the scenario on a real driver + workers over the in-memory
// transport and checks the outcome against a sequential oracle:
//
//   - every window that closed during the run has exactly the sum a
//     single-threaded reference execution produces (no lost and no
//     double-counted micro-batches),
//   - the idempotent sink never sees two different values for the same
//     (window, key) — the exactly-once-by-idempotence contract,
//   - checkpoint watermarks stored by the driver never move backwards.
//
// All randomness — the fault dice, the network jitter, and the scenario
// generator in random.go — derives from Scenario.Seed, so a failing run is
// reproduced by re-running with the seed the test failure prints.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

// jobName is the registry name of the chaos job; each Run uses a fresh
// Registry so runs can never satisfy each other's dependencies.
const jobName = "chaos-window-count"

// EventKind enumerates the structural events a scenario can script.
type EventKind int

const (
	// EventKillWorker fails the worker at the network (all its traffic is
	// dropped) and stops its process — a machine death.
	EventKillWorker EventKind = iota
	// EventAddWorker starts a fresh worker and admits it; it joins at the
	// next group boundary (late recovery / elasticity).
	EventAddWorker
	// EventBlock installs a one-way partition From -> To ("" wildcards).
	EventBlock
	// EventUnblock removes a one-way partition installed by EventBlock.
	EventUnblock
	// EventHealAll clears every probabilistic rule, every partition, and
	// every slow-worker fault; scenarios schedule it late in the run so
	// recovery can converge.
	EventHealAll
	// EventSlowWorker multiplies Node's task service time by Factor — a
	// degraded-but-alive machine (straggler), not a dead one. Heartbeats
	// keep flowing, so only speculation or health-weighted placement can
	// route around it.
	EventSlowWorker
	// EventDriverRestart crashes the driver itself: the incarnation is torn
	// down mid-run (stopped, dropped from the network) and a fresh driver is
	// built against the same WAL and checkpoint backend — the in-process
	// analogue of SIGKILL + restart with the same -ckpt-dir. Workers are NOT
	// re-added by the harness: the recovered driver must rediscover them from
	// its WAL membership table plus their own re-registration, then resume
	// the run from the last committed group. Scenarios that script this event
	// automatically get durable backends (a real on-disk WAL in a temp dir).
	EventDriverRestart
)

// Event is one scripted structural change, fired At after the run starts.
type Event struct {
	At       time.Duration
	Kind     EventKind
	Node     rpc.NodeID // EventKillWorker / EventAddWorker / EventSlowWorker target
	From, To rpc.NodeID // EventBlock / EventUnblock link
	Factor   float64    // EventSlowWorker service-time multiplier
}

// Scenario fully describes one chaos run. The zero value of most fields is
// replaced by withDefaults; Seed should always be set explicitly because it
// is the reproduction handle.
type Scenario struct {
	Name string
	Seed int64

	Mode            engine.Mode
	Workers         int
	SlotsPerWorker  int
	MapParts        int
	ReduceParts     int
	Batches         int
	GroupSize       int
	CheckpointEvery int
	// Interval is the micro-batch interval; the window size is
	// WindowBatches * Interval so windows always close on batch boundaries.
	Interval      time.Duration
	WindowBatches int
	NumKeys       int
	Repeats       int
	// MaxTaskAttempts is raised well above the engine default because fault
	// rules make individual attempts fail routinely; exhausting it aborts
	// the run and is reported as a violation.
	MaxTaskAttempts int
	// TaskCost adds real per-task compute to every map task, so a
	// slow-worker multiplier stretches something observable and the
	// straggler detector has a meaningful median to compare against.
	TaskCost time.Duration
	// Speculation enables the engine's straggler mitigation for this run.
	// The oracle invariants must hold regardless: speculative duplicates
	// are exactly the kind of redundant completion the idempotent sink and
	// state-store dedup exist to absorb.
	Speculation bool

	// Rules are installed on the FaultPlan before the run starts and stay
	// active until cleared by an EventHealAll.
	Rules []rpc.LinkFault
	// Events fire in At order on a dedicated goroutine.
	Events []Event

	// RoundTrip makes the in-memory network pass every message through the
	// wire codec (encode then decode, charging the encoded size as
	// bandwidth), so a whole chaos run exercises the codec end to end.
	// False sends values by reference. The codec-equivalence test drives
	// this.
	RoundTrip bool

	// VerifyTelemetry adds a telemetry-plane oracle after the run: for every
	// surviving worker, the driver's heartbeat-shipped mirror (cluster:
	// series) must converge to the worker's locally maintained values — a
	// duplicated or re-ordered heartbeat that were double-applied, or a
	// dropped one that was never repaired by a periodic full ship, shows up
	// as a permanent divergence. The timeline should end with EventHealAll
	// so the final values can actually be delivered.
	VerifyTelemetry bool
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Workers <= 0 {
		sc.Workers = 3
	}
	if sc.SlotsPerWorker <= 0 {
		sc.SlotsPerWorker = 4
	}
	if sc.MapParts <= 0 {
		sc.MapParts = 4
	}
	if sc.ReduceParts <= 0 {
		sc.ReduceParts = 2
	}
	if sc.Batches <= 0 {
		sc.Batches = 12
	}
	if sc.GroupSize <= 0 {
		sc.GroupSize = 3
	}
	if sc.CheckpointEvery <= 0 {
		sc.CheckpointEvery = 1
	}
	if sc.Interval <= 0 {
		sc.Interval = 40 * time.Millisecond
	}
	if sc.WindowBatches <= 0 {
		sc.WindowBatches = 4
	}
	if sc.NumKeys <= 0 {
		sc.NumKeys = 5
	}
	if sc.Repeats <= 0 {
		sc.Repeats = 2
	}
	if sc.MaxTaskAttempts <= 0 {
		sc.MaxTaskAttempts = 30
	}
	return sc
}

// engineConfig maps the scenario onto a cluster config tuned for fast
// failure detection and retry, so runs converge within the wall deadline
// even when the tail of the run has to repair fault-era damage.
func (sc Scenario) engineConfig() engine.Config {
	cfg := engine.Config{
		Mode:              sc.Mode,
		GroupSize:         sc.GroupSize,
		SlotsPerWorker:    sc.SlotsPerWorker,
		CheckpointEvery:   sc.CheckpointEvery,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  160 * time.Millisecond,
		FetchTimeout:      250 * time.Millisecond,
		StallResend:       700 * time.Millisecond,
		MaxTaskAttempts:   sc.MaxTaskAttempts,
		RetryDelay:        40 * time.Millisecond,
	}
	if sc.Speculation {
		cfg.Speculation = true
		cfg.SpeculationMultiplier = 2.5
		cfg.SpeculationMinRuntime = 25 * time.Millisecond
		if floor := 3 * sc.TaskCost; floor > cfg.SpeculationMinRuntime {
			cfg.SpeculationMinRuntime = floor
		}
		cfg.SpeculationMinCompleted = 6
		cfg.SpeculationInterval = 20 * time.Millisecond
		cfg.SpeculationMaxConcurrent = 8
	}
	return cfg
}

// span is the nominal streaming duration: the wall time the batches cover.
func (sc Scenario) span() time.Duration {
	return time.Duration(sc.Batches) * sc.Interval
}

// hasDriverRestart reports whether the timeline scripts a driver
// crash-restart, which makes Run provision durable driver backends.
func (sc Scenario) hasDriverRestart() bool {
	for _, ev := range sc.Events {
		if ev.Kind == EventDriverRestart {
			return true
		}
	}
	return false
}

// wallDeadline bounds the run: nominal span, plus up to one window of start
// alignment, plus generous slack for recovery tails under -race. Real
// per-task compute extends it by the worst case of every map task running
// serially on one heavily slowed worker.
func (sc Scenario) wallDeadline() time.Duration {
	d := sc.span() + time.Duration(sc.WindowBatches)*sc.Interval + 15*time.Second
	if sc.TaskCost > 0 {
		d += time.Duration(sc.Batches*sc.MapParts*10) * sc.TaskCost
	}
	// Each driver restart adds a recovery tail: worker re-registration,
	// snapshot re-delivery, and the replay of uncommitted batches.
	for _, ev := range sc.Events {
		if ev.Kind == EventDriverRestart {
			d += 10 * time.Second
		}
	}
	return d
}

// Report is the outcome of one Run. Violations is empty iff every oracle
// invariant held.
type Report struct {
	Scenario Scenario
	Stats    *engine.RunStats
	Faults   rpc.FaultStatsSnapshot
	Killed   []rpc.NodeID
	Added    []rpc.NodeID
	// DriverRestarts counts scripted driver crash-restarts that completed
	// (old incarnation torn down, new one built on the same WAL).
	DriverRestarts int
	// Windows is the number of distinct (window, key) results the sink saw.
	Windows int
	// CheckpointPuts counts snapshots the driver persisted.
	CheckpointPuts int64
	Violations     []string

	// tracer and registry hold the run's observability state so a failing
	// seed's full lifecycle (spans + counters) can be dumped for post-mortem
	// debugging via WriteArtifacts. history is the final driver
	// incarnation's time-series ring (per-series last-N windows over the
	// same registry).
	tracer   *trace.Tracer
	registry *metrics.Registry
	history  *metrics.History
}

func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Err returns nil when every invariant held, or an error naming the seed
// that reproduces the failing run.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: seed %d (%s): %d invariant violation(s):\n  - %s",
		r.Scenario.Seed, r.Scenario.Name, len(r.Violations),
		strings.Join(r.Violations, "\n  - "))
}

// WriteArtifacts dumps the run's observability state into dir (created if
// missing): the span ring as JSONL and a Perfetto-loadable Chrome trace,
// plus a metrics snapshot as JSON. It returns the paths written. Intended
// for failing seeds: the test harness calls it and names the directory in
// the failure message so the exact run can be inspected offline.
func (r *Report) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name string, fn func(f *os.File) error) error {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, p)
		return nil
	}
	spans := r.tracer.Snapshot()
	if err := write("trace.jsonl", func(f *os.File) error {
		return trace.WriteJSONL(f, spans)
	}); err != nil {
		return paths, err
	}
	if err := write("trace_chrome.json", func(f *os.File) error {
		return trace.WriteChromeTrace(f, spans)
	}); err != nil {
		return paths, err
	}
	if err := write("metrics.json", func(f *os.File) error {
		return r.registry.Snapshot().WriteJSON(f)
	}); err != nil {
		return paths, err
	}
	if err := write("timeseries.json", func(f *os.File) error {
		return r.history.Dump(time.Now()).WriteJSON(f)
	}); err != nil {
		return paths, err
	}
	return paths, nil
}

// Summary is a one-line human description of the run, for verbose test
// output.
func (r *Report) Summary() string {
	s := fmt.Sprintf("seed=%d mode=%v workers=%d batches=%d killed=%d added=%d windows=%d faults={drop=%d dup=%d reorder=%d delay=%d block=%d slow=%d}",
		r.Scenario.Seed, r.Scenario.Mode, r.Scenario.Workers, r.Scenario.Batches,
		len(r.Killed), len(r.Added), r.Windows,
		r.Faults.Dropped, r.Faults.Duplicated, r.Faults.Reordered, r.Faults.Delayed, r.Faults.Blocked, r.Faults.Slowed)
	if r.DriverRestarts > 0 {
		s += fmt.Sprintf(" driverRestarts=%d", r.DriverRestarts)
	}
	if r.Stats != nil {
		s += fmt.Sprintf(" wall=%v failures=%d resubmits=%d", r.Stats.Wall.Round(time.Millisecond), r.Stats.Failures, r.Stats.Resubmits)
		if r.Scenario.Speculation {
			s += fmt.Sprintf(" spec={launched=%d won=%d wasted=%d killed=%d}",
				r.Stats.SpeculationLaunched, r.Stats.SpeculationWon, r.Stats.SpeculationWasted, r.Stats.SpeculationKilled)
		}
	}
	return s
}

// cluster owns the driver, workers, network and fault plan for one run.
// The event goroutine mutates it concurrently with final cleanup, hence
// the mutex around the worker map.
type cluster struct {
	mu      sync.Mutex
	net     *rpc.InMemNetwork
	reg     *engine.Registry
	cfg     engine.Config
	plan    *rpc.FaultPlan
	driver  *engine.Driver
	workers map[rpc.NodeID]*engine.Worker
	stopped []*engine.Worker

	// Driver-restart support. store is the shared checkpoint backend and
	// cfg.WAL (when set) the shared live DriverWAL: both survive an
	// in-process driver rebuild the way on-disk state survives a real crash.
	// gen counts driver incarnations so the run loop can tell a scripted
	// restart (gen advanced) from a genuine failure; closing pins the
	// incarnation during final teardown.
	store   *watermarkStore
	gen     int
	closing bool
}

// current returns the live driver and its incarnation number.
func (c *cluster) current() (*engine.Driver, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.driver, c.gen
}

// awaitSwap blocks until a driver newer than gen is installed (true) or the
// cluster is shutting down / no swap is coming (false). The run loop calls
// it after Driver.Run fails to distinguish a scripted crash-restart from a
// real failure.
func (c *cluster) awaitSwap(gen int) bool {
	if c.cfg.WAL == nil {
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.gen == gen && !c.closing {
		if time.Now().After(deadline) {
			return false
		}
		c.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		c.mu.Lock()
	}
	return c.gen > gen
}

// shutdown stops the current driver and pins the incarnation: after this,
// restart events are no-ops and the run loop stops waiting for swaps. Safe
// to call more than once. Callers must have joined the event goroutine
// first, or a racing restart could install a driver shutdown never sees.
func (c *cluster) shutdown() {
	c.mu.Lock()
	c.closing = true
	d := c.driver
	c.mu.Unlock()
	d.Stop()
}

func (c *cluster) add(id rpc.NodeID) error {
	w := engine.NewWorker(id, "driver", c.net, c.reg, c.cfg)
	if err := w.Start(); err != nil {
		return err
	}
	c.mu.Lock()
	c.workers[id] = w
	c.mu.Unlock()
	c.driver.AddWorker(id)
	return nil
}

func (c *cluster) apply(ev Event, rep *Report) {
	switch ev.Kind {
	case EventKillWorker:
		c.mu.Lock()
		w, ok := c.workers[ev.Node]
		if ok {
			delete(c.workers, ev.Node)
			c.stopped = append(c.stopped, w)
		}
		c.mu.Unlock()
		if ok {
			c.net.Fail(ev.Node)
			// Stop blocks on in-flight slot tasks; the network already
			// drops the node's traffic, so the wind-down is invisible.
			go w.Stop()
			rep.Killed = append(rep.Killed, ev.Node)
		}
	case EventAddWorker:
		if err := c.add(ev.Node); err == nil {
			rep.Added = append(rep.Added, ev.Node)
		}
	case EventBlock:
		c.plan.Block(ev.From, ev.To)
	case EventUnblock:
		c.plan.Unblock(ev.From, ev.To)
	case EventSlowWorker:
		c.plan.SetSlow(ev.Node, ev.Factor)
	case EventHealAll:
		c.plan.ClearRules()
		c.plan.UnblockAll()
		c.plan.ClearSlow()
	case EventDriverRestart:
		if c.cfg.WAL == nil {
			return // no durable backends; nothing to recover against
		}
		c.mu.Lock()
		old, closing := c.driver, c.closing
		c.mu.Unlock()
		if closing {
			return
		}
		// Tear the incarnation down the way a crash would: stop it and drop
		// its network registration so in-flight messages bounce. Then build a
		// fresh driver on the same WAL + store. Workers are deliberately not
		// re-added — recovery must find them via the WAL membership table and
		// their own re-registration.
		old.Stop()
		c.net.Unregister("driver")
		d := engine.NewDriver("driver", c.net, c.reg, c.cfg, c.store)
		if err := d.Start(); err != nil {
			rep.violatef("restart driver: %v", err)
			return
		}
		c.mu.Lock()
		c.driver = d
		c.gen++
		c.mu.Unlock()
		rep.DriverRestarts++
	}
}

// verifyTelemetry polls until every surviving worker's heartbeat-shipped
// mirror equals the worker's local series, or the deadline passes (reported
// as a violation). Because shipped samples are absolute values guarded by an
// (incarnation, seq) ratchet, any permanent divergence means the ingest
// double-applied a duplicated/re-ordered heartbeat or lost a value no
// periodic full ship repaired.
func (c *cluster) verifyTelemetry(rep *Report, reg *metrics.Registry, within time.Duration) {
	counterFams := []string{"drizzle_worker_tasks_ok_total", "drizzle_worker_tasks_failed_total"}
	deadline := time.Now().Add(within)
	for {
		c.mu.Lock()
		ids := make([]rpc.NodeID, 0, len(c.workers))
		for id := range c.workers {
			ids = append(ids, id)
		}
		c.mu.Unlock()
		snap := reg.Snapshot()
		var diverged []string
		for _, id := range ids {
			for _, fam := range counterFams {
				local := snap.CounterValue(fam, "worker", string(id))
				mirror := snap.Counters[metrics.ClusterPrefix+metrics.Key(fam, "worker", string(id))]
				if local != mirror {
					diverged = append(diverged, fmt.Sprintf("%s{worker=%s}: local=%d mirror=%d", fam, id, local, mirror))
				}
			}
			lq := snap.GaugeValue("drizzle_worker_queue_depth", "worker", string(id))
			mq := snap.Gauges[metrics.ClusterPrefix+metrics.Key("drizzle_worker_queue_depth", "worker", string(id))]
			if lq != mq {
				diverged = append(diverged, fmt.Sprintf("drizzle_worker_queue_depth{worker=%s}: local=%v mirror=%v", id, lq, mq))
			}
		}
		if len(diverged) == 0 {
			return
		}
		if time.Now().After(deadline) {
			rep.violatef("telemetry mirror never converged to worker-local values within %v: %s",
				within, strings.Join(diverged, "; "))
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *cluster) stopAll() {
	c.mu.Lock()
	ws := make([]*engine.Worker, 0, len(c.workers)+len(c.stopped))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	ws = append(ws, c.stopped...)
	c.mu.Unlock()
	for _, w := range ws {
		w.Stop()
	}
}

// Run executes one scenario end to end and returns its report. It never
// calls testing APIs so it can be driven from tests, benchmarks, or a
// future cmd/ chaos binary alike.
func Run(sc Scenario) *Report {
	sc = sc.withDefaults()
	rep := &Report{
		Scenario: sc,
		tracer:   trace.New("chaos", trace.DefaultCapacity),
		registry: metrics.NewRegistry(),
	}

	net := rpc.NewInMemNetwork(rpc.InMemConfig{
		Latency:   200 * time.Microsecond,
		Jitter:    100 * time.Microsecond,
		Seed:      sc.Seed,
		RoundTrip: sc.RoundTrip,
	})
	plan := rpc.NewFaultPlan(sc.Seed)
	for _, r := range sc.Rules {
		plan.AddRule(r)
	}
	net.SetFaultPlan(plan)

	reg := engine.NewRegistry()
	sink := newOracleSink()
	if err := reg.Register(jobName, windowJob(sc, sink)); err != nil {
		rep.violatef("register job: %v", err)
		return rep
	}

	store := newWatermarkStore()
	cfg := sc.engineConfig()
	// Every run records its full lifecycle: if the oracle flags a violation
	// the spans and counters are dumped via WriteArtifacts for post-mortem.
	// Engine logs are discarded — scenarios inject thousands of faults and
	// each would warn; the artifacts carry the forensic record instead.
	cfg.Tracer = rep.tracer
	cfg.Metrics = rep.registry
	cfg.Logger = obs.Discard()
	if sc.hasDriverRestart() {
		// Scenarios that crash the driver get durable backends: a real
		// on-disk WAL (temp dir, removed after the run) and the shared
		// in-memory store standing in for a durable checkpoint backend —
		// the same object is handed to every incarnation, exactly as a
		// restarted process reopens the same directory.
		dir, err := os.MkdirTemp("", "drizzle-chaos-wal-")
		if err != nil {
			rep.violatef("wal dir: %v", err)
			return rep
		}
		defer os.RemoveAll(dir)
		w, err := engine.OpenDriverWAL(dir)
		if err != nil {
			rep.violatef("open driver wal: %v", err)
			return rep
		}
		defer w.Close()
		cfg.WAL = w
		cfg.RecoverWait = 5 * time.Second
	}
	driver := engine.NewDriver("driver", net, reg, cfg, store)
	if err := driver.Start(); err != nil {
		rep.violatef("start driver: %v", err)
		return rep
	}
	cl := &cluster{
		net: net, reg: reg, cfg: cfg, plan: plan, driver: driver, store: store,
		workers: make(map[rpc.NodeID]*engine.Worker),
	}
	for i := 0; i < sc.Workers; i++ {
		if err := cl.add(rpc.NodeID(fmt.Sprintf("w%d", i))); err != nil {
			rep.violatef("start worker %d: %v", i, err)
			return rep
		}
	}

	events := append([]Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	done := make(chan struct{})
	var stats *engine.RunStats
	var runErr error
	go func() {
		defer close(done)
		for {
			d, gen := cl.current()
			s, err := d.Run(jobName, sc.Batches)
			if err != nil && cl.awaitSwap(gen) {
				// A scripted driver restart interrupted the run; the next
				// incarnation resumes it from the WAL.
				continue
			}
			stats, runErr = s, err
			return
		}
	}()

	stopEvents := make(chan struct{})
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		start := time.Now()
		// One reusable timer for the whole timeline instead of a time.After
		// allocation per event (each would pin its duration's worth of heap
		// until expiry even after the run ends).
		wait := time.NewTimer(time.Hour)
		if !wait.Stop() {
			<-wait.C
		}
		defer wait.Stop()
		for _, ev := range events {
			if d := time.Until(start.Add(ev.At)); d > 0 {
				wait.Reset(d)
				select {
				case <-wait.C:
				case <-stopEvents:
					return
				}
			}
			select {
			case <-stopEvents:
				return
			default:
			}
			cl.apply(ev, rep)
		}
	}()

	deadline := sc.wallDeadline()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	timedOut := false
	select {
	case <-done:
	case <-timer.C:
		timedOut = true
		rep.violatef("run exceeded wall deadline %v: progress stalled (lost completion or livelock)", deadline)
	}
	// Join the event goroutine before shutdown so a mid-flight restart can't
	// install a driver the teardown never sees.
	close(stopEvents)
	evWG.Wait()
	// The telemetry oracle needs the driver still ingesting and the workers
	// still heartbeating, so it runs before any teardown.
	if sc.VerifyTelemetry && !timedOut {
		cl.verifyTelemetry(rep, rep.registry, 3*time.Second)
	}
	d, _ := cl.current()
	rep.history = d.History()
	cl.shutdown()
	if timedOut {
		<-done
	}
	cl.stopAll()
	net.Close()

	rep.Stats = stats
	rep.Faults = plan.Stats()
	rep.CheckpointPuts = store.putCount()
	if runErr != nil {
		rep.violatef("driver run failed: %v", runErr)
		return rep
	}
	if stats == nil {
		return rep
	}

	// Oracle comparison: the distributed run must match a sequential
	// single-threaded execution of the same deterministic source.
	want := expectedWindows(sc, stats.StartNanos)
	got := sink.snapshot()
	rep.Windows = len(got)
	if diff := diffWindows(want, got); diff != "" {
		rep.violatef("window results diverge from sequential oracle:\n%s", diff)
	}
	for _, c := range sink.conflictList() {
		rep.violatef("sink conflict (exactly-once broken): %s", c)
	}
	for _, v := range store.regressions() {
		rep.violatef("checkpoint watermark: %s", v)
	}
	return rep
}
