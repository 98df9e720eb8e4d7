package engine

import (
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
)

// Push small, pull large: a map output's blocks stored below
// shuffle.SmallBlock ride to their consumers inside the producer's
// DataReady, larger ones are fetched, and a notification that carries no
// blocks — the driver's relay, or a lost push — still completes through a
// fetch.

// scatterSource emits n records per (batch, partition) whose keys are spread
// over the whole 64-bit range, so an encoded block does not compress: a
// block of a few hundred records stays above shuffle.SmallBlock.
func scatterSource(n int) dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		recs := make([]data.Record, n)
		span := b.End - b.Start
		for i := range recs {
			recs[i] = data.Record{Key: uint64(i+1) * 0x9E3779B97F4A7C15, Val: 1, Time: b.Start + int64(i)*span/int64(n)}
		}
		return recs
	}
}

// fetchCounters reads the per-worker fetch counters out of reg.
func fetchCounters(reg *metrics.Registry, workers ...rpc.NodeID) (fetches, bytes int64) {
	for _, w := range workers {
		fetches += reg.Counter("drizzle_worker_shuffle_fetches_total", "worker", string(w)).Value()
		bytes += reg.Counter("drizzle_worker_shuffle_fetch_bytes_total", "worker", string(w)).Value()
	}
	return fetches, bytes
}

// runPushJob runs a windowed count of src on two in-memory workers under
// Drizzle, checks the sink against the reference, and returns the workers'
// fetch counters.
func runPushJob(t *testing.T, src dag.SourceFunc) (fetches, bytes int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = ModeDrizzle
	cfg.GroupSize = 4
	cfg.Metrics = metrics.NewRegistry()
	tc := newTestCluster(t, 2, cfg, rpc.InMemConfig{})
	sink := newWindowSink()
	const batches = 8
	job := windowCountJob("push", 4, 2, 50*time.Millisecond, 200*time.Millisecond, src, sink.fn, false)
	if err := tc.reg.Register("push", job); err != nil {
		t.Fatal(err)
	}
	stats, err := tc.driver.Run("push", batches)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := referenceWindows(job, stats.StartNanos, batches)
	if len(want) == 0 {
		t.Fatal("reference produced no closed windows; test misconfigured")
	}
	if diff := diffResults(want, sink.snapshot()); diff != "" {
		t.Fatalf("window results diverge from reference:\n%s", diff)
	}
	return fetchCounters(cfg.Metrics, "w0", "w1")
}

// TestSmallBlocksRideWithDataReady: with blocks of a few dozen bytes every
// remote input arrives inside its DataReady, so neither worker fetches
// anything; with blocks above the threshold the consumers still pull them.
func TestSmallBlocksRideWithDataReady(t *testing.T) {
	if fetches, _ := runPushJob(t, countingSource(5, 3)); fetches != 0 {
		t.Errorf("small blocks: %d fetches, want 0: every small block rides with its DataReady", fetches)
	}
	fetches, bytes := runPushJob(t, scatterSource(1500))
	if fetches == 0 {
		t.Fatal("large blocks: no fetches; blocks at or above shuffle.SmallBlock must be pulled")
	}
	if bytes < fetches*shuffle.SmallBlock {
		t.Errorf("large blocks: %d bytes over %d fetches; a fetch carried only small blocks", bytes, fetches)
	}
}

// pushFixture is two started workers on one in-memory network that know
// the job and a membership of both, and a stand-in driver that collects
// task statuses. Tests drive w0 by calling its handler directly.
type pushFixture struct {
	w0, w1   *Worker
	metrics  *metrics.Registry
	job      *dag.Job
	statuses chan core.TaskStatus
}

func newPushFixture(t *testing.T) *pushFixture {
	t.Helper()
	net := rpc.NewInMemNetwork(rpc.InMemConfig{})
	t.Cleanup(net.Close)
	f := &pushFixture{
		metrics:  metrics.NewRegistry(),
		job:      shuffleJob(countingSource(1, 1), 2, 8, false), // the source never runs here
		statuses: make(chan core.TaskStatus, 16),
	}
	if err := net.Register("driver", func(_ rpc.NodeID, msg any) {
		if st, ok := msg.(core.TaskStatus); ok {
			f.statuses <- st
		}
	}); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(f.job.Name, f.job); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Metrics = f.metrics
	start := func(id rpc.NodeID) *Worker {
		w := NewWorker(id, "driver", net, reg, cfg)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		w.handle("driver", core.MembershipUpdate{Epoch: 1, Workers: []rpc.NodeID{"w0", "w1"}})
		w.handle("driver", core.SubmitJob{Job: f.job.Name, StartNanos: 1})
		return w
	}
	f.w0, f.w1 = start("w0"), start("w1")
	return f
}

// partitions returns a reduce partition w0 owns and one w1 owns.
func (f *pushFixture) partitions(t *testing.T) (own, other int) {
	t.Helper()
	own, other = -1, -1
	for r := 0; r < f.job.Stages[1].NumPartitions; r++ {
		if f.w0.placement.Assign(1, r) == "w0" {
			own = r
		} else {
			other = r
		}
	}
	if own < 0 || other < 0 {
		t.Fatal("placement gives every partition to one worker; test misconfigured")
	}
	return own, other
}

// produce stores map output dep's block for reduce partition r on w1, as
// the map task that ran there would, and returns it as a pushed block.
func (f *pushFixture) produce(dep core.Dep, r int) core.ReadyBlock {
	recs := make([]data.Record, 40)
	for i := range recs {
		recs[i] = data.Record{Key: uint64(i % 7), Val: 1, Time: int64(dep.Batch)*int64(f.job.Interval) + int64(i)}
	}
	f.w1.store.Put(blockOf(dep, r), recs)
	b, _ := f.w1.store.GetRaw(blockOf(dep, r))
	return core.ReadyBlock{Partition: r, Data: b}
}

// launch pre-schedules the reduce task of batch for partition r on w0.
func (f *pushFixture) launch(dep core.Dep, r int) {
	f.w0.handle("driver", core.LaunchTasks{Tasks: []core.TaskDescriptor{{
		Job: f.job.Name, ID: core.TaskID{Batch: dep.Batch, Stage: 1, Partition: r}, Deps: []core.Dep{dep},
	}}})
}

func (f *pushFixture) await(t *testing.T, dep core.Dep) {
	t.Helper()
	select {
	case st := <-f.statuses:
		if !st.OK || st.ID.Batch != dep.Batch {
			t.Fatalf("status %+v, want batch %d OK", st, dep.Batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reduce task of batch %d never completed", dep.Batch)
	}
}

func (f *pushFixture) fetches() int64 {
	n, _ := fetchCounters(f.metrics, "w0")
	return n
}

// TestDataReadyWithoutBlocksFetches: a notification with no blocks — the
// driver's relay, or a producer whose push was lost — releases the task,
// which fetches its input from the holder.
func TestDataReadyWithoutBlocksFetches(t *testing.T) {
	f := newPushFixture(t)
	own, _ := f.partitions(t)
	dep := core.Dep{Job: f.job.Name, Batch: 3, Stage: 0, MapPartition: 0}
	f.produce(dep, own)
	f.launch(dep, own)
	f.w0.handle("driver", core.DataReady{Dep: dep, Holder: "w1"})
	f.await(t, dep)
	if n := f.fetches(); n != 1 {
		t.Fatalf("w0 made %d fetches, want 1", n)
	}
}

// TestUntrustedPushStoresNothing: a DataReady from a holder outside the
// placement neither stores its blocks nor releases anything; the same push
// from the real holder then runs the task with no fetch.
func TestUntrustedPushStoresNothing(t *testing.T) {
	f := newPushFixture(t)
	own, _ := f.partitions(t)
	dep := core.Dep{Job: f.job.Name, Batch: 4, Stage: 0, MapPartition: 1}
	blk := f.produce(dep, own)
	f.launch(dep, own)
	blocks, bytes := f.w0.store.Stats()
	f.w0.handle("w9", core.DataReady{Dep: dep, Holder: "w9", Blocks: []core.ReadyBlock{blk}})
	if b, n := f.w0.store.Stats(); b != blocks || n != bytes {
		t.Fatalf("untrusted push changed the store: %d blocks %d bytes, was %d and %d", b, n, blocks, bytes)
	}
	select {
	case st := <-f.statuses:
		t.Fatalf("untrusted push released a task: %+v", st)
	case <-time.After(50 * time.Millisecond):
	}
	if n := f.w0.ls.PendingCount(); n != 1 {
		t.Fatalf("%d tasks pending after the untrusted push, want 1", n)
	}

	f.w0.handle("w1", core.DataReady{Dep: dep, Holder: "w1", Blocks: []core.ReadyBlock{blk}})
	f.await(t, dep)
	if n := f.fetches(); n != 0 {
		t.Fatalf("w0 made %d fetches for a pushed block, want 0", n)
	}
}

// TestPushedBlockGoesAtPurge: a pushed copy lives like the producer's
// block, until the purge watermark passes its batch — also one for a
// partition the receiver does not own.
func TestPushedBlockGoesAtPurge(t *testing.T) {
	f := newPushFixture(t)
	_, other := f.partitions(t)
	dep := core.Dep{Job: f.job.Name, Batch: 5, Stage: 0, MapPartition: 0}
	blk := f.produce(dep, other)
	f.w0.handle("w1", core.DataReady{Dep: dep, Holder: "w1", Blocks: []core.ReadyBlock{blk}})
	if _, ok := f.w0.store.GetRaw(blockOf(dep, other)); !ok {
		t.Fatal("trusted push was not stored")
	}
	f.w0.handle("driver", core.LaunchTasks{PurgeBefore: 5})
	if _, ok := f.w0.store.GetRaw(blockOf(dep, other)); !ok {
		t.Fatal("purge below the block's batch dropped it")
	}
	f.w0.handle("driver", core.LaunchTasks{PurgeBefore: 6})
	if b, n := f.w0.store.Stats(); b != 0 || n != 0 {
		t.Fatalf("after the purge w0 holds %d blocks, %d bytes; want none", b, n)
	}
}
