package engine

import (
	"sync"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
)

// recordingNet is an rpc.Network that swallows every send and records it,
// letting tests assert exactly what the driver's failure paths put on the
// wire without running any workers.
type recordingNet struct {
	mu    sync.Mutex
	sends []recordedSend
	// onSend, when set, sees every send after it is recorded (outside the
	// lock), so a test can play the workers' side of the exchange.
	onSend func(to rpc.NodeID, msg any)
}

type recordedSend struct {
	from, to rpc.NodeID
	msg      any
}

func (n *recordingNet) Register(id rpc.NodeID, h rpc.Handler) error { return nil }
func (n *recordingNet) Unregister(id rpc.NodeID)                    {}
func (n *recordingNet) Close()                                      {}

func (n *recordingNet) Send(from, to rpc.NodeID, msg any) error {
	n.mu.Lock()
	n.sends = append(n.sends, recordedSend{from, to, msg})
	hook := n.onSend
	n.mu.Unlock()
	if hook != nil {
		hook(to, msg)
	}
	return nil
}

// launchesTo returns every task descriptor sent to the given worker,
// along with the purge watermark of the last LaunchTasks carrying them.
func (n *recordingNet) launchesTo(w rpc.NodeID) (descs []core.TaskDescriptor, purge core.BatchID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.sends {
		if s.to != w {
			continue
		}
		if lt, ok := s.msg.(core.LaunchTasks); ok {
			descs = append(descs, lt.Tasks...)
			purge = lt.PurgeBefore
		}
	}
	return descs, purge
}

func (n *recordingNet) messagesTo(w rpc.NodeID) []any {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []any
	for _, s := range n.sends {
		if s.to == w {
			out = append(out, s.msg)
		}
	}
	return out
}

// failpathFixture wires a driver (never Started — no goroutines) with a
// recording network and a hand-built runState mid-"run", mimicking the
// state after a few completed batches.
type failpathFixture struct {
	net    *recordingNet
	driver *Driver
	rs     *runState
	job    string
}

// newFailpathFixture builds the fixture over job; a nil job is the
// two-stage window count.
func newFailpathFixture(t testing.TB, mode Mode, workers []rpc.NodeID, job *dag.Job) *failpathFixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	net := &recordingNet{}
	reg := NewRegistry()
	d := NewDriver("driver", net, reg, cfg, nil)
	for _, w := range workers {
		d.workers[w] = &workerState{alive: true, lastHeartbeat: time.Now()}
	}
	d.epoch = 1
	p := core.NewPlacement(1, workers)
	d.placement = p

	if job == nil {
		job = windowCountJob("fp", 4, 2, 50*time.Millisecond, 200*time.Millisecond,
			countingSource(3, 1), nil, false)
	}
	rs := newRunState(&core.GroupPlanner{JobName: "fp", Job: job, StartNanos: 1_000_000}, 8, mode)
	rs.placement = p
	rs.groupFirst, rs.groupSize = 2, 1
	return &failpathFixture{net: net, driver: d, rs: rs, job: "fp"}
}

func dep(b core.BatchID, m int) core.Dep {
	return core.Dep{Job: "fp", Batch: b, Stage: 0, MapPartition: m}
}

// setOutstanding makes a task outstanding on w, as register does.
func setOutstanding(rs *runState, id core.TaskID, w rpc.NodeID) {
	r := rs.row(id)
	if r.state != taskOutstanding {
		rs.remaining++
	}
	r.state, r.worker = taskOutstanding, w
}

// setHolder records who holds a map output.
func setHolder(rs *runState, d core.Dep, h rpc.NodeID) {
	rs.row(core.TaskID{Batch: d.Batch, Stage: d.Stage, Partition: d.MapPartition}).holder = h
}

// TestResubmitRebuildsDescriptors checks that resubmit reconstructs task
// descriptors from current lineage and placement: locations held by evicted
// workers are omitted, shuffle tasks are marked for DataReady relay, the
// MinState floor from a pending restore is stamped, and bookkeeping counts
// the task as outstanding again.
func TestResubmitRebuildsDescriptors(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1", "w2"}, nil)
	rs, d := f.rs, f.driver

	// Lineage: three live holders and one entry pointing at a worker that
	// is no longer in the placement (died earlier).
	setHolder(rs, dep(2, 0), "w0")
	setHolder(rs, dep(2, 1), "wDEAD")
	setHolder(rs, dep(2, 2), "w1")
	setHolder(rs, dep(2, 3), "w2")

	// The reduce partition 1 was moved by recovery; its snapshot covers
	// batch 1, so any resubmitted task must refuse to fold into state
	// older than batch 2.
	key := checkpoint.StateKey{Job: "fp", Stage: 1, Partition: 1}
	rs.restores[key] = 1

	mapID := core.TaskID{Batch: 2, Stage: 0, Partition: 1}
	redID := core.TaskID{Batch: 2, Stage: 1, Partition: 1}
	rs.row(redID).state = taskDone // re-execution of a completed task resets it
	d.resubmit(rs, []core.TaskID{mapID, redID}, time.Now())

	mapW := rs.placement.Assign(0, 1)
	redW := rs.placement.Assign(1, 1)
	mapDescs, _ := f.net.launchesTo(mapW)
	redDescs, _ := f.net.launchesTo(redW)

	var mapDesc, redDesc *core.TaskDescriptor
	for i := range mapDescs {
		if mapDescs[i].ID == mapID {
			mapDesc = &mapDescs[i]
		}
	}
	for i := range redDescs {
		if redDescs[i].ID == redID {
			redDesc = &redDescs[i]
		}
	}
	if mapDesc == nil || redDesc == nil {
		t.Fatalf("resubmit did not launch both tasks (map to %s: %v, reduce to %s: %v)",
			mapW, mapDescs, redW, redDescs)
	}

	if !mapDesc.NotifyDownstream {
		t.Error("Drizzle-mode resubmit must keep worker-to-worker notification on")
	}
	if !rs.at(mapID).relay {
		t.Error("resubmitted shuffle task not marked for driver DataReady relay")
	}
	if got, ok := redDesc.Location(dep(2, 1)); ok {
		t.Errorf("location held by evicted worker leaked into descriptor: %v", got)
	}
	for _, m := range []int{0, 2, 3} {
		if _, ok := redDesc.Location(dep(2, m)); !ok {
			t.Errorf("live holder for map %d missing from KnownLocations", m)
		}
	}
	if redDesc.MinState != 2 {
		t.Errorf("MinState = %d, want 2 (restore floor batch 1 + 1)", redDesc.MinState)
	}
	for id, w := range map[core.TaskID]rpc.NodeID{mapID: mapW, redID: redW} {
		if r := rs.at(id); r.state != taskOutstanding || r.worker != w {
			t.Errorf("task %v: %+v, want outstanding on %s", id, *r, w)
		}
	}
	if rs.remaining != 2 {
		t.Errorf("remaining = %d, want 2", rs.remaining)
	}
}

// TestResubmitBSPDisablesNotify pins the BSP contract: resubmitted map
// tasks must not push worker-to-worker DataReady (the driver relays), or
// zombie notifications would race the per-stage barrier.
func TestResubmitBSPDisablesNotify(t *testing.T) {
	f := newFailpathFixture(t, ModeBSP, []rpc.NodeID{"w0", "w1"}, nil)
	mapID := core.TaskID{Batch: 2, Stage: 0, Partition: 0}
	f.driver.resubmit(f.rs, []core.TaskID{mapID}, time.Now())
	descs, _ := f.net.launchesTo(f.rs.placement.Assign(0, 0))
	if len(descs) != 1 {
		t.Fatalf("got %d descriptors, want 1", len(descs))
	}
	if descs[0].NotifyDownstream {
		t.Error("BSP resubmit left NotifyDownstream on")
	}
}

// TestPurgeWatermarkRequiresStoredSnapshots pins the garbage-collection
// safety contract: shuffle blocks may only be purged below a batch when
// (a) every windowed terminal partition has a *stored* snapshot covering
// it — the checkpoint-request counter alone is not proof, since
// TakeCheckpoint rides a lossy network — and (b) no incomplete task still
// reads the batch. Regression test for a chaos-found bug where a resubmit
// purged the very lineage its replayed reduce needed.
func TestPurgeWatermarkRequiresStoredSnapshots(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1"}, nil)
	rs, d := f.rs, f.driver

	rs.ckptBatch = 3 // checkpoints through batch 3 *requested*
	if wm := d.purgeWatermark(rs); wm != 0 {
		t.Fatalf("watermark %d with empty checkpoint store, want 0", wm)
	}

	// Snapshots actually landing move the watermark — to the oldest one.
	put := func(p int, batch int64) {
		err := d.ckpt.Put(&checkpoint.Snapshot{
			Key:   checkpoint.StateKey{Job: "fp", Stage: 1, Partition: p},
			Batch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put(0, 3)
	put(1, 1)
	if wm := d.purgeWatermark(rs); wm != 2 {
		t.Fatalf("watermark %d, want 2 (partition 1 only snapshotted through batch 1)", wm)
	}
	put(1, 3)
	if wm := d.purgeWatermark(rs); wm != 4 {
		t.Fatalf("watermark %d, want 4 (all partitions snapshotted through batch 3)", wm)
	}

	// An incomplete task pins its batch even below the checkpoint line
	// (recovery may be replaying it from lineage right now).
	setOutstanding(rs, core.TaskID{Batch: 1, Stage: 1, Partition: 1}, "w0")
	if wm := d.purgeWatermark(rs); wm != 1 {
		t.Fatalf("watermark %d, want 1 (outstanding replay at batch 1)", wm)
	}
}

// TestResendIncompleteResendsEverything checks the stall safety net:
// every outstanding task is re-delivered, preceded by pending restore
// state and a fresh membership broadcast.
func TestResendIncompleteResendsEverything(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1"}, nil)
	rs, d := f.rs, f.driver

	key := checkpoint.StateKey{Job: "fp", Stage: 1, Partition: 0}
	rs.restores[key] = -1
	ids := []core.TaskID{
		{Batch: 2, Stage: 0, Partition: 0},
		{Batch: 2, Stage: 1, Partition: 0},
	}
	for _, id := range ids {
		setOutstanding(rs, id, rs.placement.Assign(id.Stage, id.Partition))
	}
	d.resendIncomplete(rs, time.Now())

	resent := make(map[core.TaskID]bool)
	var restores, memberships int
	for _, w := range []rpc.NodeID{"w0", "w1"} {
		for _, msg := range f.net.messagesTo(w) {
			switch m := msg.(type) {
			case core.LaunchTasks:
				for _, desc := range m.Tasks {
					resent[desc.ID] = true
				}
			case core.RestoreState:
				restores++
			case core.MembershipUpdate:
				memberships++
			}
		}
	}
	for _, id := range ids {
		if !resent[id] {
			t.Errorf("outstanding task %v not re-sent", id)
		}
	}
	if restores == 0 {
		t.Error("pending restore was not re-delivered on stall")
	}
	if memberships < 2 {
		t.Errorf("membership re-broadcast reached %d workers, want 2", memberships)
	}
}

// TestOnWorkerFailureResubmitsLostWork exercises the full recovery
// decision: tasks outstanding on the dead node are reassigned, terminal
// partitions it owned are restored from their snapshot and replayed from
// the batch after it, and map outputs it held that the replay needs are
// transitively re-run.
func TestOnWorkerFailureResubmitsLostWork(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1", "w2"}, nil)
	rs, d := f.rs, f.driver
	rs.groupFirst, rs.groupSize = 2, 1 // current group is batch 2

	// Pick a terminal partition actually owned by w2 so the kill moves it.
	deadPart := -1
	for p := 0; p < 2; p++ {
		if rs.placement.Assign(1, p) == "w2" {
			deadPart = p
		}
	}
	if deadPart == -1 {
		t.Skip("placement assigned no terminal partition to w2")
	}
	key := checkpoint.StateKey{Job: "fp", Stage: 1, Partition: deadPart}
	if err := d.ckpt.Put(&checkpoint.Snapshot{Key: key, Batch: 1}); err != nil {
		t.Fatal(err)
	}

	// Batch-2 maps all completed; one of the outputs lives on w2.
	deadMap := -1
	for m := 0; m < 4; m++ {
		h := rs.placement.Assign(0, m)
		setHolder(rs, dep(2, m), h)
		rs.row(core.TaskID{Batch: 2, Stage: 0, Partition: m}).state = taskDone
		if h == "w2" {
			deadMap = m
		}
	}
	// The reduce for the dead partition is outstanding on w2.
	redID := core.TaskID{Batch: 2, Stage: 1, Partition: deadPart}
	setOutstanding(rs, redID, "w2")

	d.onWorkerFailure(rs, "w2", time.Now())

	if _, still := d.workers["w2"]; still {
		t.Error("dead worker still in membership")
	}
	if rs.placement.Contains("w2") {
		t.Error("new placement still contains the dead worker")
	}
	if got, want := rs.restores[key], core.BatchID(1); got != want {
		t.Errorf("restore floor = %d, want %d (snapshot batch)", got, want)
	}

	newOwner := rs.placement.Assign(1, deadPart)
	var restored bool
	for _, msg := range f.net.messagesTo(newOwner) {
		if m, ok := msg.(core.RestoreState); ok && m.Partition == deadPart && m.UpTo == 1 {
			restored = true
		}
	}
	if !restored {
		t.Errorf("new owner %s never received the partition-%d snapshot", newOwner, deadPart)
	}

	relaunched := make(map[core.TaskID]rpc.NodeID)
	for _, w := range []rpc.NodeID{"w0", "w1"} {
		descs, _ := f.net.launchesTo(w)
		for _, desc := range descs {
			relaunched[desc.ID] = w
		}
	}
	if w, ok := relaunched[redID]; !ok {
		t.Errorf("reduce %v outstanding on the dead worker was not resubmitted", redID)
	} else if w == "w2" {
		t.Error("reduce resubmitted to the dead worker")
	}
	if deadMap >= 0 {
		mapID := core.TaskID{Batch: 2, Stage: 0, Partition: deadMap}
		if _, ok := relaunched[mapID]; !ok {
			t.Errorf("lost map output %v needed by the replayed reduce was not re-run", mapID)
		}
	}
	if rs.stats.Failures != 1 {
		t.Errorf("failures = %d, want 1", rs.stats.Failures)
	}
}

// TestWorkerDiesBetweenMapOutputAndReduceFetch is the end-to-end version
// of the race the unit tests pin: a worker completes (and reports) its
// map outputs, then dies before any reduce fetches them. Fetches are
// slowed so the window is real, and the kill fires off the observed map
// status, not a timer. Recovery must re-run the lost maps from lineage
// and still produce exactly the reference windows.
func TestWorkerDiesBetweenMapOutputAndReduceFetch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeDrizzle
	cfg.GroupSize = 4
	cfg.CheckpointEvery = 1
	cfg.FetchTimeout = 250 * time.Millisecond
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 160 * time.Millisecond
	cfg.StallResend = 1 * time.Second

	tc := newTestCluster(t, 3, cfg, rpc.InMemConfig{})

	// Slow every shuffle fetch request so "map done, reduce not yet
	// fetched" is a wide-open window, and tap map-completion statuses to
	// learn (without perturbing) which worker to kill.
	plan := rpc.NewFaultPlan(1)
	victimCh := make(chan rpc.NodeID, 1)
	plan.AddRule(rpc.LinkFault{
		To: "driver",
		Match: func(msg any) bool {
			if st, ok := msg.(core.TaskStatus); ok && st.OK && st.ID.Stage == 0 {
				select {
				case victimCh <- st.Worker:
				default:
				}
			}
			return false // observe only, never inject
		},
	})
	plan.AddRule(rpc.LinkFault{
		Match: func(msg any) bool {
			_, ok := msg.(shuffle.FetchRequest)
			return ok
		},
		ExtraLatency: 40 * time.Millisecond,
	})
	tc.net.SetFaultPlan(plan)

	sink := newWindowSink()
	const batches = 16
	job := windowCountJob("mapdie", 6, 3, 50*time.Millisecond, 200*time.Millisecond,
		countingSource(5, 2), sink.fn, false)
	if err := tc.reg.Register("mapdie", job); err != nil {
		t.Fatal(err)
	}

	go func() {
		select {
		case v := <-victimCh:
			tc.kill(v)
		case <-time.After(10 * time.Second):
		}
	}()

	stats, err := tc.driver.Run("mapdie", batches)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Failures != 1 {
		t.Fatalf("driver handled %d failures, want 1", stats.Failures)
	}
	if stats.Resubmits == 0 {
		t.Fatal("no tasks were resubmitted; the kill missed the run")
	}
	want := referenceWindows(job, stats.StartNanos, batches)
	if diff := diffResults(want, sink.snapshot()); diff != "" {
		t.Fatalf("results diverge after map-holder death:\n%s", diff)
	}
}

// TestFullStatusQueueHoldsReportsBack: the driver's status queue is bounded
// by a rule (statusQueueLen), not sized to never fill, so a burst past it
// must hold reports back rather than lose them. With the queue full and
// nothing draining, one more report blocks its sender; draining delivers
// every report, in arrival order; and stopping the driver releases a sender
// still blocked.
func TestFullStatusQueueHoldsReportsBack(t *testing.T) {
	d := NewDriver("driver", &recordingNet{}, NewRegistry(), DefaultConfig(), nil)
	if c := cap(d.statusCh); c != statusQueueLen {
		t.Fatalf("status queue holds %d reports, want statusQueueLen = %d", c, statusQueueLen)
	}
	report := func(i int) core.TaskStatus {
		return core.TaskStatus{ID: core.TaskID{Batch: core.BatchID(i)}, Worker: "w0", OK: true}
	}
	fill := func() {
		for i := 0; i < statusQueueLen; i++ {
			d.handle("w0", report(i))
		}
	}
	sendOneMore := func() <-chan struct{} {
		done := make(chan struct{})
		go func() {
			d.handle("w0", report(statusQueueLen))
			close(done)
		}()
		return done
	}

	fill()
	sent := sendOneMore()
	select {
	case <-sent:
		t.Fatal("a report past a full queue returned with nothing draining: it was dropped")
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i <= statusQueueLen; i++ {
		select {
		case st := <-d.statusCh:
			if st.ID.Batch != core.BatchID(i) {
				t.Fatalf("report %d drained as report %d", i, st.ID.Batch)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("report %d of %d never arrived", i, statusQueueLen+1)
		}
	}
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked sender was not released by draining")
	}

	fill()
	blocked := sendOneMore()
	d.Stop()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stopping the driver left a sender blocked on the full queue")
	}
}

// advancingBackend is a StateBackend whose Latest finds a newer snapshot on
// every call, the way a store does while checkpoints keep landing.
type advancingBackend struct {
	checkpoint.StateBackend
	calls int64
}

func (b *advancingBackend) Latest(k checkpoint.StateKey) (*checkpoint.Snapshot, bool, error) {
	b.calls++
	return &checkpoint.Snapshot{Key: k, Batch: b.calls}, true, nil
}

// TestMigrateFloorMatchesSentSnapshot: the MinState floor migration records
// for a moved partition must be the batch of the snapshot it actually sent.
// Reading the store twice lets a snapshot that lands in between raise the
// floor above the sent state, and every later task of the partition then
// refuses to run until a NeedsState round trip repairs it.
func TestMigrateFloorMatchesSentSnapshot(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1", "w2"}, nil)
	rs, d := f.rs, f.driver
	d.ckpt = &advancingBackend{StateBackend: checkpoint.NewMemStore()}
	rs.groupSize = 0 // no group ran yet: nothing to checkpoint or replay

	oldP := rs.placement
	leaving := oldP.Assign(1, 0)
	var stay []rpc.NodeID
	for _, w := range oldP.Workers() {
		if w != leaving {
			stay = append(stay, w)
		}
	}
	d.migrateState(rs, oldP, core.NewPlacement(2, stay))

	sent := make(map[checkpoint.StateKey]core.BatchID)
	f.net.mu.Lock()
	for _, s := range f.net.sends {
		if m, ok := s.msg.(core.RestoreState); ok {
			sent[checkpoint.StateKey{Job: m.Job, Stage: m.Stage, Partition: m.Partition}] = m.UpTo
		}
	}
	f.net.mu.Unlock()
	if len(sent) == 0 {
		t.Fatal("migration moved a partition but sent no restore")
	}
	for key, upTo := range sent {
		if floor := rs.restores[key]; floor != upTo {
			t.Errorf("partition %d: floor %d, but the restore sent carries batch %d", key.Partition, floor, upTo)
		}
	}
}

// TestFailedAttemptIsChargedOnce: copies of one failure report (the network
// duplicates it) that arrive while the task's retry is queued are the same
// failure. Charging each one burns MaxTaskAttempts in a few retry delays,
// before failure detection can take the dead holder out of the placement.
func TestFailedAttemptIsChargedOnce(t *testing.T) {
	f := newFailpathFixture(t, ModeDrizzle, []rpc.NodeID{"w0", "w1"}, nil)
	rs, d := f.rs, f.driver
	id := core.TaskID{Batch: 2, Stage: 1, Partition: 0}
	setOutstanding(rs, id, rs.placement.Assign(1, 0))
	st := core.TaskStatus{ID: id, Worker: rs.at(id).worker, Err: "fetch failed"}
	for i := 0; i < 3; i++ {
		if err := d.onStatus(rs, st, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if rs.at(id).attempts != 1 || len(rs.retryQ) != 1 {
		t.Fatalf("three copies of one failure charged %d attempts and queued %d retries, want 1 and 1",
			rs.at(id).attempts, len(rs.retryQ))
	}
}
