package engine

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/groupsize"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// TestSpeculativeExecutionSlowWorker is the deterministic straggler test:
// one worker's task execution is slowed 10x once the run is warmed up. The
// run must complete, at least one speculative copy must launch and win, the
// loser must be sent a kill, the speculation ledger must balance, and the
// window sums must match the sequential oracle (exactly-once despite
// duplicate completions).
func TestSpeculativeExecutionSlowWorker(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Mode = ModeDrizzle
	cfg.GroupSize = 3
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 400 * time.Millisecond
	cfg.RetryDelay = 30 * time.Millisecond
	cfg.Speculation = true
	cfg.SpeculationMultiplier = 2
	cfg.SpeculationMinRuntime = 20 * time.Millisecond

	tc := newTestCluster(t, 3, cfg, rpc.InMemConfig{
		Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond, Seed: 1,
	})
	plan := rpc.NewFaultPlan(1)
	tc.net.SetFaultPlan(plan)

	const (
		batches  = 12
		interval = 30 * time.Millisecond
		taskCost = 5 * time.Millisecond
	)
	sink := newWindowSink()
	job := windowCountJob("spec-slow", 6, 2, interval, 2*interval, countingSource(4, 3), sink.fn, false)
	job.Stages[0].Ops = []dag.NarrowOp{func(recs []data.Record) []data.Record {
		time.Sleep(taskCost)
		return recs
	}}
	if err := tc.reg.Register(job.Name, job); err != nil {
		t.Fatal(err)
	}

	// Slow w1 only after the first window has closed, so the detector's
	// median is built from honest samples and the slowdown lands mid-run.
	go func() {
		if sink.waitEmitted(1, 10*time.Second) {
			plan.SetSlow("w1", 10)
		}
	}()

	stats, err := tc.driver.Run(job.Name, batches)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}

	want := referenceWindows(job, stats.StartNanos, batches)
	if diff := diffResults(want, sink.snapshot()); diff != "" {
		t.Errorf("window sums diverge from sequential oracle:\n%s", diff)
	}
	if stats.SpeculationLaunched == 0 {
		t.Error("no speculative copy was ever launched against a 10x-slowed worker")
	}
	if stats.SpeculationWon == 0 {
		t.Error("no speculative copy won; a 10x slowdown should lose every race to a healthy copy")
	}
	if stats.SpeculationLaunched != stats.SpeculationWon+stats.SpeculationWasted {
		t.Errorf("speculation ledger out of balance: launched=%d won=%d wasted=%d",
			stats.SpeculationLaunched, stats.SpeculationWon, stats.SpeculationWasted)
	}
	if stats.SpeculationWon > 0 && stats.SpeculationKilled == 0 {
		t.Error("speculative wins recorded but no loser was ever sent a kill")
	}
	if len(stats.Health) == 0 {
		t.Error("run stats carry no worker health snapshot")
	}
	if h, ok := stats.Health["w1"]; ok && h.State == WorkerHealthy && h.Stragglers == 0 {
		t.Errorf("slowed worker still fully healthy with no straggler strikes: %+v", h)
	}
}

// TestForcedShrinkAndRegrow checks the failure-aware group-size path: with
// auto-tuning on, a straggler forces the tuner to MinGroup at the next
// boundary (a Forced decision in the trace), and after the worker heals the
// ordinary AIMD rule re-grows the group.
func TestForcedShrinkAndRegrow(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.Mode = ModeDrizzle
	cfg.GroupSize = 4
	cfg.AutoTune = true
	cfg.Tuner = groupsize.DefaultConfig()
	cfg.Tuner.MaxGroup = 8
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 400 * time.Millisecond
	cfg.Speculation = true
	cfg.SpeculationMultiplier = 2
	cfg.SpeculationMinRuntime = 20 * time.Millisecond
	// Non-zero emulated coordination cost so that at group size 1 the
	// overhead fraction exceeds the tuner's upper bound and AIMD has a
	// reason to re-grow after the forced shrink.
	cfg.Costs = CostModel{PerTaskSerialize: 2 * time.Millisecond, PerMessage: 500 * time.Microsecond}

	tc := newTestCluster(t, 3, cfg, rpc.InMemConfig{
		Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond, Seed: 2,
	})
	plan := rpc.NewFaultPlan(2)
	tc.net.SetFaultPlan(plan)

	const (
		batches  = 36
		interval = 25 * time.Millisecond
		taskCost = 4 * time.Millisecond
	)
	sink := newWindowSink()
	job := windowCountJob("spec-shrink", 6, 2, interval, 2*interval, countingSource(4, 3), sink.fn, false)
	job.Stages[0].Ops = []dag.NarrowOp{func(recs []data.Record) []data.Record {
		time.Sleep(taskCost)
		return recs
	}}
	if err := tc.reg.Register(job.Name, job); err != nil {
		t.Fatal(err)
	}

	// Slow w1 once warmed up, heal it shortly after: the shrink must show
	// up while slow, the re-growth after the heal.
	go func() {
		if sink.waitEmitted(1, 10*time.Second) {
			plan.SetSlow("w1", 10)
			time.AfterFunc(150*time.Millisecond, plan.ClearSlow)
		}
	}()

	stats, err := tc.driver.Run(job.Name, batches)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	want := referenceWindows(job, stats.StartNanos, batches)
	if diff := diffResults(want, sink.snapshot()); diff != "" {
		t.Errorf("window sums diverge from sequential oracle:\n%s", diff)
	}

	forcedAt := -1
	for i, d := range stats.TunerTrace {
		if d.Forced {
			if d.Group != cfg.Tuner.MinGroup {
				t.Errorf("forced decision %d shrank to %d, want MinGroup %d", i, d.Group, cfg.Tuner.MinGroup)
			}
			forcedAt = i
		}
	}
	if forcedAt < 0 {
		t.Fatalf("no forced shrink in tuner trace despite straggler detection: %+v", stats.TunerTrace)
	}
	regrew := false
	for _, d := range stats.TunerTrace[forcedAt+1:] {
		if d.Group > cfg.Tuner.MinGroup {
			regrew = true
			break
		}
	}
	if !regrew {
		t.Errorf("group never re-grew past MinGroup after the last forced shrink: %+v", stats.TunerTrace)
	}
}

// TestSpeculationCountersAgreeAfterWorkerDeath: a worker death writes off
// the speculative copy it hosted and promotes the copy of a task whose
// original it ran. The registry's won and wasted counters, which
// drizzle-top reads, must move with RunStats', so launched = won + wasted
// holds in both.
func TestSpeculationCountersAgreeAfterWorkerDeath(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1", "w2"}, nil)
	rs, d := f.rs, f.driver
	reg := metrics.NewRegistry()
	d.m = newDriverMetrics(reg)
	d.log = obs.Discard()
	wasted := core.TaskID{Batch: 2, Stage: 0, Partition: 0}
	promoted := core.TaskID{Batch: 2, Stage: 0, Partition: 1}
	setOutstanding(rs, wasted, "w0")
	setOutstanding(rs, promoted, "w1")
	d.launchSpeculative(rs, wasted, "w0", "w1")
	d.launchSpeculative(rs, promoted, "w1", "w2")
	d.onWorkerFailure(rs, "w1", time.Now())

	snap := reg.Snapshot()
	launched := snap.CounterValue("drizzle_driver_speculative_launched_total")
	won := snap.CounterValue("drizzle_driver_speculative_won_total")
	lost := snap.CounterValue("drizzle_driver_speculative_wasted_total")
	if launched != 2 || won != 1 || lost != 1 {
		t.Errorf("registry: launched=%d won=%d wasted=%d, want 2, 1, 1", launched, won, lost)
	}
	s := rs.stats
	if int64(s.SpeculationLaunched) != launched || int64(s.SpeculationWon) != won || int64(s.SpeculationWasted) != lost {
		t.Errorf("RunStats launched=%d won=%d wasted=%d, registry %d, %d, %d",
			s.SpeculationLaunched, s.SpeculationWon, s.SpeculationWasted, launched, won, lost)
	}
}

// TestStragglerDetectorScriptedClock runs checkStragglers at fixed instants
// over a three-stage job. The median of six 10 ms tasks (specMinCompleted)
// puts 2× at 20 ms, under the 30 ms SpeculationMinRuntime floor, so 30 ms is
// the threshold. Tasks are held back, in turn, by that floor, by their
// batch's close (a pre-scheduled source task), by the peer gate, by their
// stage holding state (never copied) and by the specMaxConcurrent cap of 8.
// Nine tasks become eligible in all; at no instant are more tasks eligible
// than free slots, so the scan order never picks a copy.
func TestStragglerDetectorScriptedClock(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1", "w2"}, threeStageJob(nil))
	rs, d := f.rs, f.driver
	d.log = obs.Discard()
	d.cfg.SpeculationMultiplier = 2
	d.cfg.SpeculationMinRuntime = 30 * time.Millisecond
	for i := 0; i < specMinCompleted; i++ {
		rs.recordDuration(10)
	}
	closeOf := func(b core.BatchID) time.Time { return time.Unix(0, rs.planner.BatchCloseNanos(b)) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	run := func(launched time.Time, ids ...core.TaskID) {
		for _, id := range ids {
			setOutstanding(rs, id, rs.placement.Assign(id.Stage, id.Partition))
			rs.at(id).launched = launched
		}
	}
	peers := func(b core.BatchID, stage, done int, first time.Time) {
		rs.grow(b)
		*rs.peer(core.TaskID{Batch: b, Stage: stage}) = peerStat{first: first, done: done}
	}
	var (
		interior = core.TaskID{Batch: 2, Stage: 1, Partition: 0} // held by the floor
		source   = core.TaskID{Batch: 3, Stage: 0, Partition: 1} // held by its batch's close
		gated    = core.TaskID{Batch: 1, Stage: 1, Partition: 0} // held by its peers
		stateful = core.TaskID{Batch: 1, Stage: 2, Partition: 0} // never copied
		capped   = core.TaskID{Batch: 0, Stage: 0, Partition: 0} // held by the cap
		// Five more peer-gated tasks, released with gated, fill the cap.
		fill = []core.TaskID{
			{Batch: 1, Stage: 1, Partition: 1},
			{Batch: 1, Stage: 0, Partition: 0}, {Batch: 1, Stage: 0, Partition: 1},
			{Batch: 0, Stage: 1, Partition: 0}, {Batch: 0, Stage: 1, Partition: 1},
		}
	)
	run(closeOf(2), interior)
	peers(2, 1, 2, closeOf(2))
	run(closeOf(2).Add(-ms(200)), source)
	peers(3, 0, 2, closeOf(2)) // an early first peer leaves only the close floor
	run(closeOf(1), gated, stateful, fill[0], fill[1], fill[2])
	peers(1, 1, 1, closeOf(1))
	peers(1, 2, 1, closeOf(1))
	peers(1, 0, 1, closeOf(1))
	run(closeOf(0), capped, fill[3], fill[4])
	peers(0, 0, 1, closeOf(0))
	peers(0, 1, 1, closeOf(0))
	released := append([]core.TaskID{interior, source, gated}, fill...)

	for _, step := range []struct {
		name  string
		now   time.Time
		setup func()
		want  []core.TaskID
	}{
		{"interior at 25 ms, past 2× median but under the floor", closeOf(2).Add(ms(25)), nil, nil},
		{"interior at 30 ms", closeOf(2).Add(ms(30)), nil, []core.TaskID{interior}},
		{"source 25 ms after its batch closed, 275 ms after launch", closeOf(3).Add(ms(25)), nil, []core.TaskID{interior}},
		{"source at 30 ms; the peers of gated and the fill reach half", closeOf(3).Add(ms(30)), func() {
			peers(1, 1, 2, closeOf(1))
			peers(1, 0, 2, closeOf(1))
			peers(0, 1, 2, closeOf(0))
		}, released},
		{"capped task's peers reach half with eight copies in flight", closeOf(3).Add(ms(35)),
			func() { peers(0, 0, 2, closeOf(0)) }, released},
		{"interior commits and frees a slot", closeOf(3).Add(ms(40)), func() {
			r := rs.at(interior)
			r.spec, r.state, r.worker = specAttempt{}, taskDone, ""
			rs.remaining--
		}, append([]core.TaskID{source, gated, capped}, fill...)},
	} {
		if step.setup != nil {
			step.setup()
		}
		d.checkStragglers(rs, step.now)
		var got []core.TaskID
		for i := range rs.rows {
			if r := &rs.rows[i]; r.spec.worker != "" {
				if r.spec.worker == r.worker {
					t.Errorf("%s: copy of %v placed on its original's worker %s", step.name, rs.taskAt(i), r.worker)
				}
				got = append(got, rs.taskAt(i))
			}
		}
		sort.Slice(got, func(i, j int) bool { return goldenLess(got[i], got[j]) })
		want := append([]core.TaskID(nil), step.want...)
		sort.Slice(want, func(i, j int) bool { return goldenLess(want[i], want[j]) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: copies in flight %v, want %v", step.name, got, want)
		}
	}
}
