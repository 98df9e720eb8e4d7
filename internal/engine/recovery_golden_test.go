package engine

// The recovery golden: scripted failure, stall, retry, speculation, restore
// and migration scenarios run against the driver's recovery functions on a
// hand-built runState and a recording network — no workers, no sockets.
// After every step the test writes down what the driver put on the wire and
// the bookkeeping it left behind, canonicalised (sorted, no wall-clock
// times), into testdata/golden_recovery.txt. The file is written once; a
// refactor of the recovery code must leave it byte for byte unchanged.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// goldenRun is one scenario's fixture plus the lines recorded so far.
type goldenRun struct {
	t     *testing.T
	f     *failpathFixture
	d     *Driver
	rs    *runState
	lines []string
}

func newGoldenRun(t *testing.T, name string, mode Mode, workers []rpc.NodeID, job *dag.Job) *goldenRun {
	f := newFailpathFixture(t, mode, workers, job)
	f.driver.log = obs.Discard()
	return &goldenRun{t: t, f: f, d: f.driver, rs: f.rs, lines: []string{"# " + name}}
}

// ackLaunches makes every launched task report OK from the worker it was
// sent to, the instant it is sent: statusCh is buffered, so the reports
// queue until the driver's waitTasks drains them.
func (g *goldenRun) ackLaunches() {
	g.f.net.onSend = func(to rpc.NodeID, msg any) {
		lt, ok := msg.(core.LaunchTasks)
		if !ok {
			return
		}
		for _, task := range lt.Tasks {
			g.d.statusCh <- core.TaskStatus{ID: task.ID, Worker: to, Attempt: task.Attempt, OK: true}
		}
	}
}

// complete marks every task of (batch, stage) completed; a shuffle stage's
// outputs are recorded on holder(partition), or on the partition's owner
// when holder is nil.
func (g *goldenRun) complete(b core.BatchID, stage int, holder func(p int) rpc.NodeID) {
	s := &g.rs.planner.Job.Stages[stage]
	for p := 0; p < s.NumPartitions; p++ {
		g.rs.row(core.TaskID{Batch: b, Stage: stage, Partition: p}).state = taskDone
		if s.Shuffle == nil {
			continue
		}
		h := g.rs.placement.Assign(stage, p)
		if holder != nil {
			h = holder(p)
		}
		setHolder(g.rs, core.Dep{Job: g.rs.jobName, Batch: b, Stage: stage, MapPartition: p}, h)
	}
}

// launch makes one task outstanding on its owner.
func (g *goldenRun) launch(id core.TaskID) {
	setOutstanding(g.rs, id, g.rs.placement.Assign(id.Stage, id.Partition))
}

// snapshot stores a one-window, one-key snapshot (so its encoding does not
// depend on map order) for a terminal partition.
func (g *goldenRun) snapshot(stage, p int, batch int64) {
	key := checkpoint.StateKey{Job: g.rs.jobName, Stage: stage, Partition: p}
	err := g.d.ckpt.Put(&checkpoint.Snapshot{
		Key: key, Batch: batch, EmittedThrough: batch * 10,
		Windows: map[int64]map[uint64]int64{batch * 100: {uint64(p) + 7: batch + 1}},
	})
	if err != nil {
		g.t.Fatal(err)
	}
}

// owner returns the worker the fixture's starting placement assigns.
func (g *goldenRun) owner(stage, p int) rpc.NodeID { return g.rs.placement.Assign(stage, p) }

// record appends the step's sends and the run state after it, then clears
// the recorded sends for the next step.
func (g *goldenRun) record(step string) {
	g.f.net.mu.Lock()
	sends := g.f.net.sends
	g.f.net.sends = nil
	g.f.net.mu.Unlock()
	msgs := make([]string, 0, len(sends))
	for _, s := range sends {
		msgs = append(msgs, canonicalSend(s))
	}
	sort.Strings(msgs)
	g.lines = append(g.lines, "## "+step)
	for _, m := range msgs {
		g.lines = append(g.lines, "send "+m)
	}
	rs := g.rs
	var out, relay, restores, holders []string
	for i := range rs.rows {
		r, id := &rs.rows[i], rs.taskAt(i)
		if r.state == taskOutstanding {
			out = append(out, goldenTask(id)+"@"+string(r.worker))
		}
		if r.relay {
			relay = append(relay, goldenTask(id))
		}
		if r.holder != "" {
			holders = append(holders, goldenDep(core.Dep{Batch: id.Batch, Stage: id.Stage, MapPartition: id.Partition})+"@"+string(r.holder))
		}
	}
	for k, b := range rs.restores {
		restores = append(restores, fmt.Sprintf("s%dp%d=%d", k.Stage, k.Partition, b))
	}
	for _, l := range [][]string{out, relay, restores, holders} {
		sort.Strings(l)
	}
	g.lines = append(g.lines,
		strings.Join(append([]string{"outstanding"}, out...), " "),
		strings.Join(append([]string{"relay"}, relay...), " "),
		strings.Join(append([]string{"restores"}, restores...), " "),
		strings.Join(append([]string{"mapHolders"}, holders...), " "),
		fmt.Sprintf("remaining %d resubmits %d", rs.remaining, rs.stats.Resubmits))
}

func goldenTask(id core.TaskID) string {
	return fmt.Sprintf("b%ds%dp%d", id.Batch, id.Stage, id.Partition)
}

func goldenDep(d core.Dep) string {
	return fmt.Sprintf("b%ds%dm%d", d.Batch, d.Stage, d.MapPartition)
}

// canonicalSend renders one send with every field recovery decides, in an
// order that does not depend on map iteration.
func canonicalSend(s recordedSend) string {
	switch m := s.msg.(type) {
	case core.LaunchTasks:
		tasks := append([]core.TaskDescriptor(nil), m.Tasks...)
		sort.Slice(tasks, func(i, j int) bool { return goldenLess(tasks[i].ID, tasks[j].ID) })
		var b strings.Builder
		fmt.Fprintf(&b, "%s LaunchTasks purge=%d", s.to, m.PurgeBefore)
		for _, task := range tasks {
			known := make([]string, 0, len(task.KnownLocations))
			for _, l := range task.KnownLocations {
				known = append(known, goldenDep(l.Dep)+"@"+string(l.Node))
			}
			sort.Strings(known)
			fmt.Fprintf(&b, " {%s attempt=%d min=%d notBefore=%d notify=%t known=[%s]}",
				goldenTask(task.ID), task.Attempt, task.MinState, task.NotBefore,
				task.NotifyDownstream, strings.Join(known, " "))
		}
		return b.String()
	case core.RestoreState:
		sum := sha256.Sum256(m.State)
		return fmt.Sprintf("%s RestoreState s%dp%d upTo=%d state=%s", s.to, m.Stage, m.Partition, m.UpTo, hex.EncodeToString(sum[:8]))
	case core.DataReady:
		return fmt.Sprintf("%s DataReady %s holder=%s", s.to, goldenDep(m.Dep), m.Holder)
	case core.MembershipUpdate:
		return fmt.Sprintf("%s MembershipUpdate epoch=%d workers=%v", s.to, m.Epoch, m.Workers)
	case core.SubmitJob:
		return fmt.Sprintf("%s SubmitJob %s start=%d", s.to, m.Job, m.StartNanos)
	case core.TakeCheckpoint:
		return fmt.Sprintf("%s TakeCheckpoint upTo=%d", s.to, m.UpTo)
	case core.KillTask:
		var b strings.Builder
		fmt.Fprintf(&b, "%s KillTask", s.to)
		for _, a := range m.Tasks {
			fmt.Fprintf(&b, " %s/%d", goldenTask(a.ID), a.Attempt)
		}
		return b.String()
	}
	return fmt.Sprintf("%s %T", s.to, s.msg)
}

func goldenLess(a, b core.TaskID) bool {
	if a.Batch != b.Batch {
		return a.Batch < b.Batch
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	return a.Partition < b.Partition
}

var goldenWorkers = []rpc.NodeID{"w0", "w1", "w2"}

// goldenDrizzleFailure: group = batches 2–3, launched whole. The dead worker
// owns reduce partition 0 (snapshot at batch 0, so batches 1–3 replay) and
// one batch-3 map whose speculative copy on a live worker is promoted.
func goldenDrizzleFailure(t *testing.T) []string {
	g := newGoldenRun(t, "drizzle worker death mid-group", ModeDrizzle, goldenWorkers, nil)
	rs := g.rs
	rs.groupFirst, rs.groupSize = 2, 2
	dead := g.owner(1, 0)
	for b := core.BatchID(0); b < 2; b++ {
		g.complete(b, 0, nil)
		g.complete(b, 1, nil)
	}
	g.complete(2, 0, nil)
	for p := 0; p < 2; p++ {
		if id := (core.TaskID{Batch: 2, Stage: 1, Partition: p}); g.owner(1, p) == dead {
			g.launch(id)
		} else {
			rs.row(id).state = taskDone
		}
	}
	var promoted core.TaskID
	for p := 0; p < 4; p++ {
		id := core.TaskID{Batch: 3, Stage: 0, Partition: p}
		g.launch(id)
		if g.owner(0, p) == dead && promoted == (core.TaskID{}) {
			promoted = id
			for _, w := range goldenWorkers {
				if w != dead {
					rs.row(id).spec = specAttempt{worker: w, attempt: 1}
					break
				}
			}
		}
	}
	for p := 0; p < 2; p++ {
		g.launch(core.TaskID{Batch: 3, Stage: 1, Partition: p})
	}
	g.snapshot(1, 0, 0)
	g.d.onWorkerFailure(rs, dead, time.Now())
	g.record("onWorkerFailure(" + string(dead) + ")")

	// The re-run batch-1 map of partition 0 commits: its output is relayed
	// to the consumers' owners under the new placement.
	var rerun core.TaskID
	for i := range rs.rows {
		if r, id := &rs.rows[i], rs.taskAt(i); r.relay && r.state == taskOutstanding && id.Batch == 1 {
			rerun = id
			break
		}
	}
	if err := g.d.onStatus(rs, core.TaskStatus{ID: rerun, Worker: rs.at(rerun).worker, OK: true}, time.Now()); err != nil {
		t.Fatal(err)
	}
	g.record("onStatus(" + goldenTask(rerun) + " OK)")
	return g.lines
}

// goldenBSPFailure: batch 2's maps committed and the stage barrier passed,
// but no reduce is launched yet when the owner of map 0 dies — a lost map
// output with no launched consumer to witness the loss.
func goldenBSPFailure(t *testing.T) []string {
	g := newGoldenRun(t, "bsp worker death between stages", ModeBSP, goldenWorkers, nil)
	rs := g.rs
	rs.groupFirst, rs.groupSize = 2, 1
	for b := core.BatchID(0); b < 2; b++ {
		g.complete(b, 0, nil)
		g.complete(b, 1, nil)
	}
	g.complete(2, 0, nil)
	g.snapshot(1, 0, 1)
	g.snapshot(1, 1, 1)
	dead := g.owner(0, 0)
	g.d.onWorkerFailure(rs, dead, time.Now())
	g.record("onWorkerFailure(" + string(dead) + ")")
	return g.lines
}

// goldenStall: a three-stage job whose final reduce is stalled on an
// interior output held by a departed worker, whose own inputs were partly
// held by it too.
func goldenStall(t *testing.T) []string {
	g := newGoldenRun(t, "stall over a transitive dead holder", ModeDrizzle, goldenWorkers, threeStageJob(nil))
	rs := g.rs
	rs.groupFirst, rs.groupSize = 2, 1
	g.complete(2, 0, func(p int) rpc.NodeID {
		if p%2 == 1 {
			return "gone"
		}
		return g.owner(0, p)
	})
	g.complete(2, 1, func(p int) rpc.NodeID {
		if p == 0 {
			return "gone"
		}
		return g.owner(1, p)
	})
	for p := 0; p < 2; p++ {
		g.launch(core.TaskID{Batch: 2, Stage: 2, Partition: p})
	}
	g.snapshot(2, 1, 1)
	rs.restores[checkpoint.StateKey{Job: rs.jobName, Stage: 2, Partition: 1}] = 1
	g.d.resendIncomplete(rs, time.Now())
	g.record("resendIncomplete")
	return g.lines
}

// goldenRetry: reduce 0 retries on its third attempt and so distrusts its
// (all live) holders; reduce 1 retries on its first and trusts them.
func goldenRetry(t *testing.T) []string {
	g := newGoldenRun(t, "retry distrusting live holders", ModeDrizzle, goldenWorkers, nil)
	rs := g.rs
	g.complete(1, 0, nil)
	g.complete(2, 0, nil)
	past := time.Now().Add(-time.Second)
	for p := 0; p < 2; p++ {
		id := core.TaskID{Batch: 2, Stage: 1, Partition: p}
		g.launch(id)
		rs.retryQ = append(rs.retryQ, retryEntry{id: id, due: past})
	}
	rs.row(core.TaskID{Batch: 2, Stage: 1, Partition: 0}).attempts = 2
	g.d.fireRetries(rs, time.Now())
	g.record("fireRetries")
	return g.lines
}

// goldenSpeculation: copies of a source task and of an interior task whose
// inputs are held partly by a departed worker.
func goldenSpeculation(t *testing.T) []string {
	g := newGoldenRun(t, "speculative launches", ModeDrizzle, goldenWorkers, threeStageJob(nil))
	rs := g.rs
	g.complete(2, 0, func(p int) rpc.NodeID {
		if p == 3 {
			return "gone"
		}
		return g.owner(0, p)
	})
	for _, id := range []core.TaskID{{Batch: 3, Stage: 0, Partition: 1}, {Batch: 2, Stage: 1, Partition: 2}} {
		g.launch(id)
		primary := rs.at(id).worker
		target := goldenWorkers[0]
		if target == primary {
			target = goldenWorkers[1]
		}
		g.d.launchSpeculative(rs, id, primary, target)
		g.record("launchSpeculative(" + goldenTask(id) + " -> " + string(target) + ")")
	}
	return g.lines
}

// goldenNeedsState: a NeedsState report re-delivers the restore of a
// partition recovery moved, and nothing for one it did not.
func goldenNeedsState(t *testing.T) []string {
	g := newGoldenRun(t, "NeedsState for tracked and untracked partitions", ModeDrizzle, goldenWorkers, nil)
	rs := g.rs
	g.snapshot(1, 0, 1)
	g.snapshot(1, 1, 1)
	rs.restores[checkpoint.StateKey{Job: rs.jobName, Stage: 1, Partition: 0}] = 1
	for p := 0; p < 2; p++ {
		id := core.TaskID{Batch: 2, Stage: 1, Partition: p}
		g.launch(id)
		st := core.TaskStatus{ID: id, Worker: rs.at(id).worker, NeedsState: true, Err: "state behind"}
		if err := g.d.onStatus(rs, st, time.Now()); err != nil {
			t.Fatal(err)
		}
		g.record("onStatus(" + goldenTask(id) + " NeedsState)")
	}
	return g.lines
}

// goldenSeedRecovery: a restarted driver resumes at batch 3 with snapshots
// at batches 1 and 0, so batches 1–2 replay in full.
func goldenSeedRecovery(t *testing.T) []string {
	g := newGoldenRun(t, "seedRecovery after a driver restart", ModeDrizzle, goldenWorkers, nil)
	rs := g.rs
	rs.ckptBatch = 2
	g.snapshot(1, 0, 1)
	g.snapshot(1, 1, 0)
	g.ackLaunches()
	if err := g.d.seedRecovery(rs, 3); err != nil {
		t.Fatal(err)
	}
	g.record("seedRecovery(3)")
	return g.lines
}

// migrationRun sets up a boundary after the group of batches 2–3 where the
// owner of reduce partition 0 leaves the placement.
func migrationRun(t *testing.T, name string) (*goldenRun, core.Placement, core.Placement) {
	g := newGoldenRun(t, name, ModeDrizzle, goldenWorkers, nil)
	rs := g.rs
	rs.groupFirst, rs.groupSize = 2, 2
	for b := core.BatchID(0); b < 4; b++ {
		g.complete(b, 0, nil)
		g.complete(b, 1, nil)
	}
	leaving := g.owner(1, 0)
	var stay []rpc.NodeID
	for _, w := range goldenWorkers {
		if w != leaving {
			stay = append(stay, w)
		}
	}
	return g, rs.placement, core.NewPlacement(2, stay)
}

func goldenMigrateCovered(t *testing.T) []string {
	g, oldP, newP := migrationRun(t, "migration covered by snapshots")
	g.snapshot(1, 0, 3)
	g.snapshot(1, 1, 3)
	g.d.migrateState(g.rs, oldP, newP)
	g.record("migrateState")
	return g.lines
}

// goldenMigrateReplay: the snapshots stop at batch 1, so the checkpoint wait
// times out and the moved partition replays batches 2–3 on its new owner.
func goldenMigrateReplay(t *testing.T) []string {
	g, oldP, newP := migrationRun(t, "migration with a replay")
	g.snapshot(1, 0, 1)
	g.snapshot(1, 1, 1)
	g.ackLaunches()
	g.d.migrateState(g.rs, oldP, newP)
	g.record("migrateState")
	return g.lines
}

// TestRecoveryMatchesGolden pins every recovery decision the driver makes in
// the scripted scenarios: what it sends to whom, and the outstanding, relay,
// restore and lineage bookkeeping it leaves.
func TestRecoveryMatchesGolden(t *testing.T) {
	var lines []string
	for _, scenario := range []func(*testing.T) []string{
		goldenDrizzleFailure, goldenBSPFailure, goldenStall, goldenRetry, goldenSpeculation,
		goldenNeedsState, goldenSeedRecovery, goldenMigrateCovered, goldenMigrateReplay,
	} {
		lines = append(lines, scenario(t)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/golden_recovery.txt")
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("recovery decisions differ from testdata/golden_recovery.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}
