package core

import (
	"testing"
	"testing/quick"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/rpc"
)

func testJob() *dag.Job {
	return &dag.Job{
		Name:     "t",
		Interval: 100 * time.Millisecond,
		Stages: []dag.Stage{
			{
				ID: 0, NumPartitions: 4,
				Source:  func(dag.BatchInfo) []data.Record { return nil },
				Shuffle: &dag.ShuffleSpec{NumReducers: 2},
			},
			{
				ID: 1, NumPartitions: 2, Parents: []int{0},
				Reduce: dag.Sum,
				Sink:   func(int64, int, []data.Record) {},
			},
		},
	}
}

func workers(n int) []rpc.NodeID {
	out := make([]rpc.NodeID, n)
	for i := range out {
		out[i] = rpc.NodeID(string(rune('a' + i)))
	}
	return out
}

func TestPlacementDeterministic(t *testing.T) {
	p1 := NewPlacement(1, []rpc.NodeID{"w2", "w1", "w3"})
	p2 := NewPlacement(1, []rpc.NodeID{"w3", "w1", "w2"})
	for s := 0; s < 3; s++ {
		for part := 0; part < 20; part++ {
			if p1.Assign(s, part) != p2.Assign(s, part) {
				t.Fatalf("placement depends on input order at (%d,%d)", s, part)
			}
		}
	}
}

func TestPlacementMinimalDisruption(t *testing.T) {
	ws := workers(8)
	before := NewPlacement(1, ws)
	after := NewPlacement(2, ws[:7]) // drop worker "h"
	moved, total := 0, 0
	for part := 0; part < 64; part++ {
		total++
		a, b := before.Assign(1, part), after.Assign(1, part)
		if a != b {
			moved++
			if a != ws[7] {
				t.Fatalf("partition %d moved from surviving worker %s", part, a)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no partitions owned by the removed worker (suspicious hashing)")
	}
	if moved > total/2 {
		t.Fatalf("too many partitions moved: %d of %d", moved, total)
	}
}

func TestPlacementBalance(t *testing.T) {
	p := NewPlacement(1, workers(4))
	counts := make(map[rpc.NodeID]int)
	const parts = 400
	for part := 0; part < parts; part++ {
		counts[p.Assign(0, part)]++
	}
	for w, c := range counts {
		if c < parts/4/2 || c > parts/4*2 {
			t.Fatalf("worker %s owns %d of %d partitions (imbalanced)", w, c, parts)
		}
	}
}

func TestPlacementPanicsWhenEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Assign on empty placement did not panic")
		}
	}()
	NewPlacement(0, nil).Assign(0, 0)
}

// TestPlacementQuick property-tests assignment stability and membership.
func TestPlacementQuick(t *testing.T) {
	p := NewPlacement(3, workers(5))
	f := func(stage uint8, part uint16) bool {
		w := p.Assign(int(stage), int(part))
		return p.Contains(w) && w == p.Assign(int(stage), int(part))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerBatchTimes(t *testing.T) {
	g := &GroupPlanner{JobName: "t", Job: testJob(), StartNanos: 1000}
	iv := int64(100 * time.Millisecond)
	if got := g.BatchCloseNanos(0); got != 1000+iv {
		t.Fatalf("BatchCloseNanos(0) = %d", got)
	}
}

func TestPlannerDeps(t *testing.T) {
	g := &GroupPlanner{JobName: "t", Job: testJob()}
	if deps := g.DepsOf(5, 0, 0); deps != nil {
		t.Fatalf("source stage has deps: %v", deps)
	}
	deps := g.DepsOf(5, 1, 0)
	if len(deps) != 4 {
		t.Fatalf("reduce task has %d deps, want 4", len(deps))
	}
	for i, d := range deps {
		if d.Batch != 5 || d.Stage != 0 || d.MapPartition != i {
			t.Fatalf("dep %d = %+v", i, d)
		}
	}
}

func TestPlanGroup(t *testing.T) {
	g := &GroupPlanner{JobName: "t", Job: testJob(), StartNanos: time.Now().UnixNano()}
	p := NewPlacement(1, workers(3))
	byWorker, all := g.PlanGroup(p, 10, 5, 2)
	// 5 batches x (4 map + 2 reduce) tasks.
	if len(all) != 30 {
		t.Fatalf("planned %d tasks, want 30", len(all))
	}
	seen := make(map[TaskID]bool)
	n := 0
	for w, descs := range byWorker {
		for _, d := range descs {
			n++
			if seen[d.ID] {
				t.Fatalf("task %v planned twice", d.ID)
			}
			seen[d.ID] = true
			if got := p.Assign(d.ID.Stage, d.ID.Partition); got != w {
				t.Fatalf("task %v bundled for %s but placed on %s", d.ID, w, got)
			}
			if !d.NotifyDownstream {
				t.Fatalf("group-scheduled task %v does not pre-schedule notifications", d.ID)
			}
			if d.ID.Stage == 0 && d.NotBefore == 0 {
				t.Fatalf("source task %v has no NotBefore gate", d.ID)
			}
			if d.ID.Stage == 1 && len(d.Deps) != 4 {
				t.Fatalf("reduce task %v has %d deps", d.ID, len(d.Deps))
			}
		}
	}
	if n != 30 {
		t.Fatalf("bundles contain %d tasks, want 30", n)
	}
}

// TestLocalSchedulerTimeGatedRemoval: a task still behind its NotBefore
// gate that is removed by Cancel, CancelAttempts, PurgeJob or Close never
// reaches Runnable, not even once its gate time has passed.
func TestLocalSchedulerTimeGatedRemoval(t *testing.T) {
	for _, c := range []struct {
		name   string
		remove func(ls *LocalScheduler, id TaskID)
	}{
		{"Cancel", func(ls *LocalScheduler, id TaskID) { ls.Cancel([]TaskID{id}) }},
		{"CancelAttempts", func(ls *LocalScheduler, id TaskID) { ls.CancelAttempts([]TaskAttempt{{ID: id, Attempt: 2}}) }},
		{"PurgeJob", func(ls *LocalScheduler, id TaskID) { ls.PurgeJob("j") }},
		{"Close", func(ls *LocalScheduler, id TaskID) { ls.Close() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ls := NewLocalScheduler(16)
			defer ls.Close()
			id := TaskID{Batch: 1}
			notBefore := time.Now().Add(20 * time.Millisecond)
			ls.Add(TaskDescriptor{Job: "j", ID: id, Attempt: 2, NotBefore: notBefore.UnixNano()})
			c.remove(ls, id)
			if n := ls.PendingCount(); n != 0 {
				t.Fatalf("%d tasks still pending after %s", n, c.name)
			}
			select {
			case rt := <-ls.Runnable():
				t.Fatalf("task %v released after %s removed it", rt.Desc.ID, c.name)
			case <-time.After(time.Until(notBefore) + 30*time.Millisecond):
			}
		})
	}
}

func TestLocalSchedulerSourceTimeGate(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	notBefore := time.Now().Add(30 * time.Millisecond)
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 1}, NotBefore: notBefore.UnixNano()})
	select {
	case <-ls.Runnable():
		t.Fatal("task released before NotBefore")
	case <-time.After(10 * time.Millisecond):
	}
	select {
	case rt := <-ls.Runnable():
		if time.Now().Before(notBefore) {
			t.Fatal("released early")
		}
		if rt.Desc.ID.Batch != 1 {
			t.Fatalf("wrong task released: %v", rt.Desc.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("task never released")
	}
}

func TestLocalSchedulerDeps(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	d1 := Dep{Batch: 1, Stage: 0, MapPartition: 0}
	d2 := Dep{Batch: 1, Stage: 0, MapPartition: 1}
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 1, Stage: 1}, Deps: []Dep{d1, d2}})
	ls.OnDataReady(d1, "w1")
	select {
	case <-ls.Runnable():
		t.Fatal("released with a missing dep")
	case <-time.After(5 * time.Millisecond):
	}
	ls.OnDataReady(d2, "w2")
	select {
	case rt := <-ls.Runnable():
		if rt.Locations[d1] != "w1" || rt.Locations[d2] != "w2" {
			t.Fatalf("locations wrong: %v", rt.Locations)
		}
	case <-time.After(time.Second):
		t.Fatal("task never released")
	}
}

func TestLocalSchedulerEarlyDataReady(t *testing.T) {
	// DataReady can arrive before LaunchTasks; the dep must be remembered.
	ls := NewLocalScheduler(16)
	defer ls.Close()
	d := Dep{Batch: 2, Stage: 0, MapPartition: 3}
	ls.OnDataReady(d, "w9")
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 2, Stage: 1}, Deps: []Dep{d}})
	select {
	case rt := <-ls.Runnable():
		if rt.Locations[d] != "w9" {
			t.Fatalf("early dep location lost: %v", rt.Locations)
		}
	case <-time.After(time.Second):
		t.Fatal("task with pre-satisfied dep never released")
	}
}

func TestLocalSchedulerDuplicateDataReady(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	d1 := Dep{Batch: 1, Stage: 0, MapPartition: 0}
	d2 := Dep{Batch: 1, Stage: 0, MapPartition: 1}
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 1, Stage: 1}, Deps: []Dep{d1, d2}})
	ls.OnDataReady(d1, "w1")
	ls.OnDataReady(d1, "w1") // duplicate must not count as d2
	select {
	case <-ls.Runnable():
		t.Fatal("duplicate DataReady double-counted")
	case <-time.After(5 * time.Millisecond):
	}
}

func TestLocalSchedulerKnownLocations(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	d := Dep{Batch: 1, Stage: 0, MapPartition: 0}
	ls.Add(TaskDescriptor{
		ID:             TaskID{Batch: 1, Stage: 1},
		Deps:           []Dep{d},
		KnownLocations: []DepLocation{{Dep: d, Node: "w5"}},
	})
	select {
	case rt := <-ls.Runnable():
		if rt.Locations[d] != "w5" {
			t.Fatalf("known location ignored: %v", rt.Locations)
		}
	case <-time.After(time.Second):
		t.Fatal("fully-known task never released")
	}
}

func TestLocalSchedulerCancel(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	d := Dep{Batch: 1, Stage: 0, MapPartition: 0}
	id := TaskID{Batch: 1, Stage: 1}
	ls.Add(TaskDescriptor{ID: id, Deps: []Dep{d}})
	cancelled := ls.Cancel([]TaskID{id, {Batch: 9}})
	if len(cancelled) != 1 || cancelled[0] != id {
		t.Fatalf("Cancel = %v", cancelled)
	}
	ls.OnDataReady(d, "w1")
	select {
	case <-ls.Runnable():
		t.Fatal("cancelled task released")
	case <-time.After(5 * time.Millisecond):
	}
}

func TestLocalSchedulerPurge(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	ls.OnDataReady(Dep{Batch: 1, Stage: 0, MapPartition: 0}, "w1")
	ls.OnDataReady(Dep{Batch: 5, Stage: 0, MapPartition: 0}, "w1")
	ls.Purge(3)
	// The purged dep must now block a task; the kept one must not.
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 1, Stage: 1}, Deps: []Dep{{Batch: 1, Stage: 0, MapPartition: 0}}})
	select {
	case <-ls.Runnable():
		t.Fatal("purged dep still satisfied")
	case <-time.After(5 * time.Millisecond):
	}
	ls.Add(TaskDescriptor{ID: TaskID{Batch: 5, Stage: 1}, Deps: []Dep{{Batch: 5, Stage: 0, MapPartition: 0}}})
	select {
	case rt := <-ls.Runnable():
		if rt.Desc.ID.Batch != 5 {
			t.Fatalf("wrong task released: %v", rt.Desc.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("kept dep lost by purge")
	}
}

func TestLocalSchedulerDuplicateAdd(t *testing.T) {
	ls := NewLocalScheduler(16)
	defer ls.Close()
	desc := TaskDescriptor{ID: TaskID{Batch: 1}}
	ls.Add(desc)
	<-ls.Runnable()
	if ls.PendingCount() != 0 {
		t.Fatal("released task still pending")
	}
}
