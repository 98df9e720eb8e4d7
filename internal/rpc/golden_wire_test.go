package rpc_test

// The wire golden: the bytes the codec puts on the wire for one fixed
// instance of every registered message type, and for a two-frame stream as
// a real TCP route writes it (magic included). testdata/golden_wire.txt is
// written once and only a deliberate protocol change rewrites it; a
// refactor of the codec or the transport must leave every digest alone.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
)

// goldenMessages holds one instance per registered message type. Maps have
// at most one entry, so their encoding does not depend on iteration order.
func goldenMessages() []any {
	big := make([]byte, 8<<10) // above the 4 KiB compress threshold
	for i := range big {
		big[i] = byte(i / 64)
	}
	dep := core.Dep{Job: "yahoo", Batch: 41, Stage: 0, MapPartition: 3}
	bid := shuffle.BlockID{Job: "yahoo", Batch: 41, Stage: 0, MapPartition: 3, ReducePartition: 5}
	return []any{
		core.SubmitJob{Job: "yahoo", StartNanos: 1_700_000_000_000_000_000},
		core.MembershipUpdate{
			Epoch:   7,
			Workers: []rpc.NodeID{"w0", "w1", "w2"},
			Addrs:   map[rpc.NodeID]string{"w1": "127.0.0.1:7102"},
			Weights: map[rpc.NodeID]float64{"w2": 0.75},
		},
		core.LaunchTasks{
			Tasks: []core.TaskDescriptor{{
				Job: "yahoo", ID: core.TaskID{Batch: 41, Stage: 1, Partition: 5},
				Attempt: 2, NotBefore: 1_700_000_000_020_000_000,
				Deps:             []core.Dep{dep, {Job: "yahoo", Batch: 41, Stage: 0, MapPartition: 4}},
				KnownLocations:   []core.DepLocation{{Dep: dep, Node: "w1"}},
				NotifyDownstream: true, Group: 40, MinState: 39, TraceSpan: 0xdead_beef,
			}, {
				Job: "yahoo", ID: core.TaskID{Batch: 42, Stage: 0, Partition: 0},
			}},
			PurgeBefore: 30,
		},
		core.CancelTasks{IDs: []core.TaskID{{Batch: 41, Stage: 1, Partition: 5}, {Batch: -1}}},
		core.KillTask{Tasks: []core.TaskAttempt{{ID: core.TaskID{Batch: 41, Stage: 1, Partition: 5}, Attempt: 1}}},
		core.DataReady{Dep: dep, Holder: "w1", Size: 4096},
		core.TaskStatus{
			ID: core.TaskID{Batch: 41, Stage: 1, Partition: 5}, Worker: "w2", Attempt: 1,
			OK: false, Err: "fetch failed", NeedsJob: true, NeedsState: true,
			RunNanos: 1_500_000, QueueNanos: 250_000, TraceSpan: 99,
			OutputSizes: []int64{0, 17, -3},
		},
		core.Heartbeat{
			Worker: "w0", Nanos: 1_700_000_000_500_000_000, Incarnation: 3, Seq: 12, Full: true,
			Counters:  []core.CounterSample{{Key: "tasks_ok", Value: 17}},
			Gauges:    []core.GaugeSample{{Key: "slots_busy", Value: 1.5}},
			Summaries: []core.SummarySample{{Key: "run_ms", Count: 4, Sum: 10, P50: 2, P95: 3.5, P99: 4, Max: 4.25}},
		},
		core.RegisterWorker{Worker: "w3", Addr: "127.0.0.1:7104"},
		core.TakeCheckpoint{Job: "yahoo", UpTo: 39},
		core.CheckpointData{Job: "yahoo", Stage: 1, Partition: 5, UpTo: 39, State: big},
		core.RestoreState{Job: "yahoo", Stage: 1, Partition: 5, UpTo: 39, State: []byte("small state")},
		shuffle.FetchRequest{ID: 77, From: "w2", Blocks: []shuffle.BlockID{bid}},
		shuffle.FetchResponse{
			ID:      77,
			Blocks:  []shuffle.Block{{ID: bid, Data: big}, {ID: bid, Data: []byte{1, 2, 3}}},
			Missing: []shuffle.BlockID{{Job: "yahoo", Batch: 40}},
		},
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum)
}

// tcpStreamBytes sends two messages over a real TCP route to a raw listener
// and returns every byte the route wrote, from the first to the close.
func tcpStreamBytes(t *testing.T, msgs ...any) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		b, _ := io.ReadAll(c)
		got <- b
	}()
	n := rpc.NewTCPNetwork()
	n.Announce("dst", ln.Addr().String())
	for _, m := range msgs {
		if err := n.Send("src", "dst", m); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	return <-got
}

func TestWireMatchesGolden(t *testing.T) {
	var lines []string
	for _, m := range goldenMessages() {
		b, err := rpc.DefaultCodec.EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		lines = append(lines, fmt.Sprintf("%T tag=%d len=%d sha256=%s", m, b[0], len(b), digest(b)))
	}
	stream := tcpStreamBytes(t,
		core.TakeCheckpoint{Job: "yahoo", UpTo: 39},
		core.DataReady{Dep: core.Dep{Job: "yahoo", Batch: 41, MapPartition: 3}, Holder: "w1", Size: 4096})
	lines = append(lines, fmt.Sprintf("tcp-stream magic=%x len=%d sha256=%s", stream[:min(4, len(stream))], len(stream), digest(stream)))
	// Written after the lines above, when DataReady gained its optional
	// blocks tail: the one above without blocks did not change.
	pushed := core.DataReady{
		Dep: core.Dep{Job: "yahoo", Batch: 41, Stage: 0, MapPartition: 3}, Holder: "w1", Size: 4096,
		Blocks: []core.ReadyBlock{{Partition: 5, Data: []byte("five")}, {Partition: 7, Data: []byte{0xFF, 0, 7}}},
	}
	b, err := rpc.DefaultCodec.EncodeMessage(nil, pushed)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, fmt.Sprintf("%T+blocks=%d tag=%d len=%d sha256=%s", pushed, len(pushed.Blocks), b[0], len(b), digest(b)))
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/golden_wire.txt")
	if err != nil {
		t.Fatalf("%v\ngot:\n%s", err, got)
	}
	if !bytes.Equal(want, []byte(got)) {
		t.Errorf("wire bytes differ from testdata/golden_wire.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}
