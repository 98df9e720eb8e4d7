package engine

import (
	"runtime"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// tinyGroup is the group size of sched-tiny's plan shape: 16 map and 8
// reduce tasks a batch, planned 10 batches at a time.
const tinyGroup = 10

// groupLoop is a driver that runs whole groups against two scripted
// workers on a recording network: every task launched is answered at once
// by an OK status from the worker it was sent to, and every checkpoint is
// durable.
type groupLoop struct {
	d     *Driver
	rs    *runState
	net   *recordingNet
	next  core.BatchID
	sends int // messages the driver sent, over every group run
}

func newGroupLoop(tb testing.TB, groups int) *groupLoop {
	job := windowCountJob("tiny", 16, 8, 20*time.Millisecond, 100*time.Millisecond, countingSource(1, 1), nil, false)
	net := &recordingNet{}
	d := NewDriver("driver", net, NewRegistry(), DefaultConfig(), nil)
	d.log = obs.Discard()
	workers := []rpc.NodeID{"w0", "w1"}
	for _, w := range workers {
		d.workers[w] = &workerState{lastHeartbeat: time.Now()}
	}
	d.epoch = 1
	d.placement = core.NewPlacement(1, workers)
	rs := newRunState(&core.GroupPlanner{JobName: "tiny", Job: job, StartNanos: 1_000_000}, groups*tinyGroup, ModeDrizzle)
	rs.placement = d.placement
	// A snapshot past the last batch makes every checkpoint durable once
	// it is requested.
	for _, key := range rs.stateKeys {
		if err := d.ckpt.Put(&checkpoint.Snapshot{Key: key, Batch: int64(groups * tinyGroup)}); err != nil {
			tb.Fatal(err)
		}
	}
	net.onSend = func(to rpc.NodeID, msg any) {
		if lt, ok := msg.(core.LaunchTasks); ok {
			for _, task := range lt.Tasks {
				d.statusCh <- core.TaskStatus{ID: task.ID, Worker: to, Attempt: task.Attempt, OK: true}
			}
		}
	}
	return &groupLoop{d: d, rs: rs, net: net}
}

// group runs the next group and checkpoints through its last batch, as
// Run does at a group boundary.
func (l *groupLoop) group(tb testing.TB) {
	if _, _, err := l.d.runGroupDrizzle(l.rs, l.next, tinyGroup, int64(l.next)); err != nil {
		tb.Fatal(err)
	}
	l.next += tinyGroup
	l.rs.ckptBatch = l.next - 1
	l.net.mu.Lock()
	l.sends += len(l.net.sends)
	l.net.sends = l.net.sends[:0]
	l.net.mu.Unlock()
}

// BenchmarkDriverGroup is the control plane's micro-ruler: the driver's
// plan, register, launch, wait loop, commit and purge for one group of
// sched-tiny's shape, against scripted workers. It reports the cost per
// task and the driver's messages per batch.
func BenchmarkDriverGroup(b *testing.B) {
	l := newGroupLoop(b, b.N)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.group(b)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perBatch := 0
	for _, s := range l.rs.planner.Job.Stages {
		perBatch += s.NumPartitions
	}
	tasks := float64(b.N * tinyGroup * perBatch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tasks, "ns/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/tasks, "allocs/task")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/tasks, "B/task")
	b.ReportMetric(float64(l.sends)/float64(b.N*tinyGroup), "msgs/batch")
}
