package core

import (
	"math/rand"
	"reflect"
	"testing"

	"drizzle/internal/rpc"
)

// Fuzz targets for the hand-rolled control-plane decoders. The contract on
// untrusted bytes: return an error or a message, never panic, and never
// allocate unboundedly (wire.Reader validates every count and length against
// the bytes actually present). When a decode succeeds, re-encoding the
// result and decoding again must reproduce it exactly — the decoded set is a
// fixed point of the codec.

func fuzzTaggedDecode(f *testing.F, tag byte, seeds []any) {
	for _, msg := range seeds {
		b, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[1:]) // strip the tag; the fuzz body pins it
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := rpc.DefaultCodec.DecodeMessage(append([]byte{tag}, b...))
		if err != nil {
			return
		}
		enc, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", msg, err)
		}
		again, err := rpc.DefaultCodec.DecodeMessage(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("not a fixed point:\n first: %+v\nsecond: %+v", msg, again)
		}
	})
}

func seedDescriptor() TaskDescriptor {
	return TaskDescriptor{
		Job:       "wordcount",
		ID:        TaskID{Batch: 7, Stage: 1, Partition: 3},
		Attempt:   1,
		NotBefore: 123456789,
		Deps: []Dep{
			{Job: "wordcount", Batch: 7, Stage: 0, MapPartition: 0},
			{Job: "wordcount", Batch: 7, Stage: 0, MapPartition: 1},
		},
		KnownLocations: []DepLocation{
			{Dep: Dep{Job: "wordcount", Batch: 7, Stage: 0, MapPartition: 0}, Node: "w1"},
		},
		NotifyDownstream: true,
		Group:            2,
		MinState:         6,
		TraceSpan:        0xDEADBEEF,
	}
}

func FuzzDecodeLaunchTasks(f *testing.F) {
	fuzzTaggedDecode(f, tagLaunchTasks, []any{
		LaunchTasks{},
		LaunchTasks{Tasks: []TaskDescriptor{seedDescriptor(), {}}, PurgeBefore: 5},
	})
}

func FuzzDecodeTaskStatus(f *testing.F) {
	fuzzTaggedDecode(f, tagTaskStatus, []any{
		TaskStatus{},
		TaskStatus{
			ID: TaskID{Batch: 3, Stage: 1, Partition: 2}, Worker: "w2",
			Attempt: 1, OK: true, OutputSizes: []int64{10, 0, 99},
			RunNanos: 1e6, QueueNanos: 2e5, TraceSpan: 42,
		},
		TaskStatus{OK: false, Err: "exec: boom", NeedsJob: true},
	})
}

func FuzzDecodeMembershipUpdate(f *testing.F) {
	fuzzTaggedDecode(f, tagMembershipUpdate, []any{
		MembershipUpdate{},
		MembershipUpdate{
			Epoch:   4,
			Workers: []rpc.NodeID{"w1", "w2"},
			Addrs:   map[rpc.NodeID]string{"w1": "127.0.0.1:1", "w2": "127.0.0.1:2"},
			Weights: map[rpc.NodeID]float64{"w1": 1, "w2": 0.5},
		},
	})
}

func FuzzDecodeCheckpointData(f *testing.F) {
	big := make([]byte, 8<<10)
	for i := range big {
		big[i] = byte(i / 32) // compressible: the seed exercises the snappy path
	}
	fuzzTaggedDecode(f, tagCheckpointData, []any{
		CheckpointData{},
		CheckpointData{Job: "j", Stage: 1, Partition: 2, UpTo: 9, State: []byte{1, 2, 3}},
		CheckpointData{Job: "j", UpTo: 3, State: big},
	})
}

func FuzzDecodeDataReady(f *testing.F) {
	dep := Dep{Job: "wordcount", Batch: 7, Stage: 0, MapPartition: 1}
	fuzzTaggedDecode(f, tagDataReady, []any{
		DataReady{Dep: dep, Holder: "w1", Size: 120},
		DataReady{Dep: dep, Holder: "w1", Size: 120, Blocks: []ReadyBlock{
			{Partition: 2, Data: []byte{0xFF, 0xFF, 0xFF, 0xFF, 3, 1}},
			{Partition: 5, Data: []byte("block")},
		}},
	})
}

// TestBinaryFixedPointRandom complements the fuzzers with a quick seeded
// sweep so the fixed-point property is checked on every plain `go test` run,
// not only under -fuzz.
func TestBinaryFixedPointRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := seedDescriptor()
		d.Attempt = r.Intn(10)
		d.TraceSpan = r.Uint64()
		d.Group = int64(r.Intn(100))
		msg := LaunchTasks{Tasks: []TaskDescriptor{d}, PurgeBefore: BatchID(r.Intn(50))}
		b, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rpc.DefaultCodec.DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round-trip diverged at %d:\n got: %+v\nwant: %+v", i, got, msg)
		}
	}
}
