package drizzle_test

import (
	"testing"
	"time"

	"drizzle"
	"drizzle/internal/checkpoint"
)

func sampleSource(b drizzle.BatchInfo) []drizzle.Record {
	recs := make([]drizzle.Record, 0, 12)
	span := b.End - b.Start
	for i := 0; i < 12; i++ {
		recs = append(recs, drizzle.Record{
			Key:  uint64(i % 4),
			Val:  1,
			Time: b.Start + int64(i)*span/12,
		})
	}
	return recs
}

func TestClusterQuickstart(t *testing.T) {
	cluster, err := drizzle.NewLocalCluster(2, drizzle.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	collect := drizzle.NewCollectSink()
	p := drizzle.NewPipeline("quick", 50*time.Millisecond)
	p.Source(4, sampleSource).
		Filter(func(r drizzle.Record) bool { return r.Key != 3 }).
		CountByKeyAndWindow(200*time.Millisecond, 2, drizzle.Combine).
		Sink(collect.Fn())

	stats, err := cluster.Run(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 12 {
		t.Fatalf("ran %d batches", stats.Batches)
	}
	results := collect.Results()
	if len(results) == 0 {
		t.Fatal("no windows emitted")
	}
	for k := range results {
		if k[1] == 3 {
			t.Fatal("filtered key leaked")
		}
	}
	if collect.Total() == 0 {
		t.Fatal("zero total count")
	}
}

func TestClusterBSPMode(t *testing.T) {
	cfg := drizzle.DefaultConfig()
	cfg.Mode = drizzle.ModeBSP
	cluster, err := drizzle.NewLocalCluster(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	collect := drizzle.NewCollectSink()
	p := drizzle.NewPipeline("bsp", 50*time.Millisecond)
	p.Source(2, sampleSource).CountByKeyAndWindow(100*time.Millisecond, 2, drizzle.NoCombine).Sink(collect.Fn())
	if _, err := cluster.Run(p, 8); err != nil {
		t.Fatal(err)
	}
	if collect.Total() == 0 {
		t.Fatal("BSP mode produced nothing")
	}
}

func TestClusterKillWorkerRecovers(t *testing.T) {
	cfg := drizzle.DefaultConfig()
	cfg.GroupSize = 5
	cluster, err := drizzle.NewLocalCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	collect := drizzle.NewCollectSink()
	p := drizzle.NewPipeline("kill", 50*time.Millisecond)
	p.Source(6, sampleSource).CountByKeyAndWindow(200*time.Millisecond, 3, drizzle.Combine).Sink(collect.Fn())

	go func() {
		time.Sleep(400 * time.Millisecond)
		cluster.KillWorker(cluster.Workers()[0])
	}()
	stats, err := cluster.Run(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures != 1 {
		t.Fatalf("failures = %d, want 1", stats.Failures)
	}
	if collect.Total() == 0 {
		t.Fatal("no output after recovery")
	}
	if len(cluster.Workers()) != 2 {
		t.Fatalf("live workers = %d, want 2", len(cluster.Workers()))
	}
}

func TestClusterElasticity(t *testing.T) {
	cluster, err := drizzle.NewLocalCluster(2, drizzle.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	collect := drizzle.NewCollectSink()
	p := drizzle.NewPipeline("grow", 50*time.Millisecond)
	p.Source(4, sampleSource).CountByKeyAndWindow(200*time.Millisecond, 2, drizzle.Combine).Sink(collect.Fn())
	go func() {
		time.Sleep(300 * time.Millisecond)
		if _, err := cluster.AddWorker(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := cluster.Run(p, 16); err != nil {
		t.Fatal(err)
	}
	if got := len(cluster.Workers()); got != 3 {
		t.Fatalf("live workers = %d, want 3", got)
	}
}

func TestNewLocalClusterRejectsZeroWorkers(t *testing.T) {
	if _, err := drizzle.NewLocalCluster(0, drizzle.DefaultConfig()); err == nil {
		t.Fatal("zero-worker cluster created")
	}
}

func TestHelpers(t *testing.T) {
	if drizzle.Sum(2, 3) != 5 || drizzle.Max(2, 3) != 3 {
		t.Fatal("reduce helpers broken")
	}
	if drizzle.HashKey("a") == drizzle.HashKey("b") {
		t.Fatal("HashKey collides trivially")
	}
	h := drizzle.NewHistogram()
	sink := drizzle.NewLatencySink(h, time.Now())
	sink.Fn(time.Second)(0, 0, []drizzle.Record{{Key: 1, Time: time.Now().Add(-2 * time.Second).UnixNano()}})
	if h.Count() != 1 {
		t.Fatal("latency sink did not record")
	}
}

// TestRunRegisteredTwice re-runs the same registered job on one cluster;
// the second run's batch numbering restarts at zero, so workers must purge
// the first run's blocks, dependencies and window state.
func TestRunRegisteredTwice(t *testing.T) {
	cluster, err := drizzle.NewLocalCluster(2, drizzle.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	collect := drizzle.NewCollectSink()
	p := drizzle.NewPipeline("again", 50*time.Millisecond)
	p.Source(4, sampleSource).
		CountByKeyAndWindow(200*time.Millisecond, 2, drizzle.Combine).
		Sink(collect.Fn())
	if _, err := cluster.Run(p, 8); err != nil {
		t.Fatal(err)
	}
	firstWindows := len(collect.Results())
	if firstWindows == 0 {
		t.Fatal("first run emitted nothing")
	}
	if _, err := cluster.RunRegistered("again", 8); err != nil {
		t.Fatalf("second run: %v", err)
	}
	results := collect.Results()
	if len(results) <= firstWindows {
		t.Fatalf("second run emitted no new windows: %d -> %d", firstWindows, len(results))
	}
	// Every fully-closed window holds 4 batches x 4 partitions x 3 records
	// for keys 0..2 (key 3 contributes 3/batch too: 12 records over keys
	// 0..3, each key 3x per batch x 4 parts x 4 batches = 48).
	for k, v := range results {
		if v%12 != 0 || v > 48 {
			t.Fatalf("window %d key %d count = %d: stale state leaked between runs", k[0], k[1], v)
		}
	}
}

// TestLocalClusterCheckpointDir runs a pipeline against a CheckpointDir,
// closes the cluster, and reopens the directory as the durable store it is:
// every terminal partition of the job must have a snapshot there.
func TestLocalClusterCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	cfg := drizzle.DefaultConfig()
	cfg.GroupSize = 4
	cfg.CheckpointDir = dir
	cluster, err := drizzle.NewLocalCluster(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := drizzle.NewPipeline("ckptdir", 50*time.Millisecond)
	p.Source(4, sampleSource).CountByKeyAndWindow(200*time.Millisecond, 3, drizzle.Combine).Sink(drizzle.NewCollectSink().Fn())
	if _, err := cluster.Run(p, 12); err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	cluster.Close()

	store, err := checkpoint.OpenLogStore(dir, checkpoint.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The job is a source stage and one windowed reduce stage (stage 1)
	// of three partitions; the reduce stage is the terminal one.
	for part := 0; part < 3; part++ {
		key := checkpoint.StateKey{Job: "ckptdir", Stage: 1, Partition: part}
		if _, ok, err := store.Latest(key); err != nil || !ok {
			t.Errorf("no snapshot for %+v in the reopened store (err %v)", key, err)
		}
	}
}
