package core

import (
	"reflect"
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/rpc"
)

// TestMessagesSurviveGob sends every control message through a real TCP
// connection (gob codec) and compares the received value, guarding the
// wire protocol the daemons rely on.
func TestMessagesSurviveGob(t *testing.T) {
	net := rpc.NewTCPNetwork()
	defer net.Close()
	got := make(chan any, 16)
	if _, err := net.Listen("server", "127.0.0.1:0", func(_ rpc.NodeID, msg any) {
		got <- msg
	}); err != nil {
		t.Fatal(err)
	}

	dep := Dep{Job: "j", Batch: 3, Stage: 0, MapPartition: 2}
	msgs := []any{
		SubmitJob{Job: "j", StartNanos: 123},
		MembershipUpdate{Epoch: 7, Workers: []rpc.NodeID{"a", "b"}, Addrs: map[rpc.NodeID]string{"a": "x:1"}},
		LaunchTasks{
			PurgeBefore: 2,
			Tasks: []TaskDescriptor{{
				Job:              "j",
				ID:               TaskID{Batch: 3, Stage: 1, Partition: 0},
				NotBefore:        999,
				Deps:             []Dep{dep},
				KnownLocations:   []DepLocation{{Dep: dep, Node: "a"}},
				NotifyDownstream: true,
				Group:            1,
			}},
		},
		CancelTasks{IDs: []TaskID{{Batch: 1}}},
		DataReady{Dep: dep, Holder: "a", Size: 42},
		TaskStatus{ID: TaskID{Batch: 3}, Worker: "a", OK: true, OutputSizes: []int64{1, 2}, RunNanos: 5, QueueNanos: 6},
		Heartbeat{Worker: "a", Nanos: 1},
		TakeCheckpoint{Job: "j", UpTo: 9},
		CheckpointData{Job: "j", Stage: 1, Partition: 0, UpTo: 9, State: []byte{1, 2, 3}},
		RestoreState{Job: "j", Stage: 1, Partition: 0, UpTo: 9, State: []byte{4, 5}},
	}
	for _, m := range msgs {
		if err := net.Send("client", "server", m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
		select {
		case r := <-got:
			if !reflect.DeepEqual(r, m) {
				t.Fatalf("%T mangled by gob:\nsent %+v\ngot  %+v", m, m, r)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%T not delivered", m)
		}
	}
}

// TestDepsOfStructured verifies §3.6 dependency narrowing: with a fan-in-4
// structure over 16 producers, consumer partition p waits on exactly its
// four producers.
func TestDepsOfStructured(t *testing.T) {
	job := &dag.Job{
		Name:     "t",
		Interval: 50 * time.Millisecond,
		Stages: []dag.Stage{
			{
				ID: 0, NumPartitions: 16,
				Source: func(dag.BatchInfo) []data.Record { return nil },
				Shuffle: &dag.ShuffleSpec{
					NumReducers: 4, Combine: true, CombineFunc: dag.Sum,
					Structure: &dag.CommStructure{FanIn: 4},
				},
			},
			{
				ID: 1, NumPartitions: 4, Parents: []int{0},
				Reduce: dag.Sum,
			},
		},
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	g := &GroupPlanner{JobName: "t", Job: job}
	for p := 0; p < 4; p++ {
		deps := g.DepsOf(2, 1, p)
		if len(deps) != 4 {
			t.Fatalf("partition %d has %d deps, want 4", p, len(deps))
		}
		for i, d := range deps {
			if d.MapPartition != p*4+i {
				t.Fatalf("partition %d dep %d = map %d, want %d", p, i, d.MapPartition, p*4+i)
			}
			if d.Job != "t" || d.Batch != 2 || d.Stage != 0 {
				t.Fatalf("dep identity wrong: %+v", d)
			}
		}
	}
}

// TestPlanGroupStructuredDeps ensures structured narrowing survives the
// full group-planning path.
func TestPlanGroupStructuredDeps(t *testing.T) {
	job := &dag.Job{
		Name:     "t",
		Interval: 50 * time.Millisecond,
		Stages: []dag.Stage{
			{
				ID: 0, NumPartitions: 8,
				Source: func(dag.BatchInfo) []data.Record { return nil },
				Shuffle: &dag.ShuffleSpec{
					NumReducers: 2, Combine: true, CombineFunc: dag.Sum,
					Structure: &dag.CommStructure{FanIn: 4},
				},
			},
			{ID: 1, NumPartitions: 2, Parents: []int{0}, Reduce: dag.Sum},
		},
	}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	g := &GroupPlanner{JobName: "t", Job: job, StartNanos: time.Now().UnixNano()}
	_, all := g.PlanGroup(NewPlacement(1, workers(3)), 0, 2, 0)
	for _, d := range all {
		if d.ID.Stage == 1 && len(d.Deps) != 4 {
			t.Fatalf("structured consumer %v has %d deps, want 4", d.ID, len(d.Deps))
		}
	}
}
