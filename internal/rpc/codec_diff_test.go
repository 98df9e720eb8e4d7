package rpc_test

// The differential oracle for the binary codec: for randomized instances of
// every wire message type, a binary round-trip must produce a value
// deep-equal to a gob round-trip of the same instance. Gob is the reference
// implementation — it was the only wire format before the binary codec, so
// "decodes to whatever gob decodes to" is the exact compatibility contract,
// including gob's normalizations (zero-length slices and maps collapse to
// nil). The gob side lives here, in the test, and nowhere in the program.
// This test lives in an external test package so it can import
// internal/core and internal/shuffle, whose init functions register the
// binary codecs for the real message types.

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
)

// gobValue wraps a message so gob encodes its interface-typed payload with
// the concrete type name, as the gob transport did.
type gobValue struct {
	V any
}

func init() {
	for _, m := range zeroValues {
		gob.Register(m)
	}
}

// gobRoundTrip is the reference: the value gob would have delivered.
func gobRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobValue{V: msg}); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var v gobValue
	if err := gob.NewDecoder(&buf).Decode(&v); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return v.V
}

// tcpRoundTrip sends msgs over one real TCP route and returns what the
// receiving handler got, in order.
func tcpRoundTrip(t *testing.T, msgs []any) []any {
	t.Helper()
	recv := rpc.NewTCPNetwork()
	defer recv.Close()
	got := make(chan any, len(msgs))
	addr, err := recv.Listen("dst", "127.0.0.1:0", func(_ rpc.NodeID, m any) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	send := rpc.NewTCPNetwork()
	defer send.Close()
	send.Announce("dst", addr)
	for i, m := range msgs {
		if err := send.Send("src", "dst", m); err != nil {
			t.Fatalf("send %d (%T): %v", i, m, err)
		}
	}
	out := make([]any, len(msgs))
	for i := range out {
		select {
		case out[i] = <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d of %d not delivered", i, len(msgs))
		}
	}
	return out
}

// genString returns a random string: sometimes empty, sometimes long,
// sometimes containing arbitrary (non-UTF-8) bytes.
func genString(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return ""
	case 1: // arbitrary bytes, not valid UTF-8
		b := make([]byte, 1+r.Intn(20))
		r.Read(b)
		return string(b)
	case 2: // long
		b := make([]byte, 100+r.Intn(900))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	default:
		return []string{"wordcount", "driver", "w3", "shuffle-block", "α/β"}[r.Intn(5)]
	}
}

// genBytes returns nil, empty, small-random, or large-compressible payloads;
// the large case pushes CheckpointData/RestoreState/Block over the snappy
// threshold.
func genBytes(r *rand.Rand) []byte {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []byte{} // gob collapses this to nil; binary must match
	case 2:
		b := make([]byte, 8<<10) // above the 4 KiB compress threshold
		for i := range b {
			b[i] = byte(i / 64) // compressible
		}
		return b
	case 3:
		b := make([]byte, 5<<10) // above threshold but incompressible
		r.Read(b)
		return b
	default:
		b := make([]byte, 1+r.Intn(64))
		r.Read(b)
		return b
	}
}

func genInt64(r *rand.Rand) int64 {
	switch r.Intn(3) {
	case 0:
		return int64(r.Uint64()) // full range, either sign
	case 1:
		return int64(r.Intn(1000))
	default:
		return 0
	}
}

// genFloat avoids NaN (reflect.DeepEqual(NaN, NaN) is false, which would
// fail the oracle for reasons unrelated to the codec).
func genFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -1.5e300
	default:
		return r.NormFloat64()
	}
}

func genNodeID(r *rand.Rand) rpc.NodeID { return rpc.NodeID(genString(r)) }

func genTaskID(r *rand.Rand) core.TaskID {
	return core.TaskID{
		Batch:     core.BatchID(genInt64(r)),
		Stage:     r.Intn(8),
		Partition: r.Intn(64),
	}
}

func genDep(r *rand.Rand) core.Dep {
	return core.Dep{
		Job:          genString(r),
		Batch:        core.BatchID(genInt64(r)),
		Stage:        r.Intn(8),
		MapPartition: r.Intn(64),
	}
}

func genTaskDescriptor(r *rand.Rand) core.TaskDescriptor {
	t := core.TaskDescriptor{
		Job:              genString(r),
		ID:               genTaskID(r),
		Attempt:          r.Intn(4),
		NotBefore:        genInt64(r),
		NotifyDownstream: r.Intn(2) == 0,
		Group:            genInt64(r),
		MinState:         core.BatchID(genInt64(r)),
		TraceSpan:        r.Uint64(),
	}
	if n := r.Intn(5); n > 0 {
		t.Deps = make([]core.Dep, n)
		for i := range t.Deps {
			t.Deps[i] = genDep(r)
		}
	}
	if n := r.Intn(4); n > 0 {
		t.KnownLocations = make([]core.DepLocation, n)
		for i := range t.KnownLocations {
			t.KnownLocations[i] = core.DepLocation{Dep: genDep(r), Node: genNodeID(r)}
		}
	}
	return t
}

func genBlockID(r *rand.Rand) shuffle.BlockID {
	return shuffle.BlockID{
		Job:             genString(r),
		Batch:           genInt64(r),
		Stage:           r.Intn(8),
		MapPartition:    r.Intn(64),
		ReducePartition: r.Intn(64),
	}
}

// generators covers every message type registered with the binary codec.
// Each is called repeatedly with a seeded Rand, so a failure reproduces.
var generators = map[string]func(r *rand.Rand) any{
	"SubmitJob": func(r *rand.Rand) any {
		return core.SubmitJob{Job: genString(r), StartNanos: genInt64(r)}
	},
	"MembershipUpdate": func(r *rand.Rand) any {
		m := core.MembershipUpdate{Epoch: genInt64(r)}
		if n := r.Intn(6); n > 0 {
			m.Workers = make([]rpc.NodeID, n)
			for i := range m.Workers {
				m.Workers[i] = genNodeID(r)
			}
		}
		if n := r.Intn(4); n > 0 {
			m.Addrs = make(map[rpc.NodeID]string, n)
			for i := 0; i < n; i++ {
				m.Addrs[genNodeID(r)] = genString(r)
			}
		}
		if n := r.Intn(4); n > 0 {
			m.Weights = make(map[rpc.NodeID]float64, n)
			for i := 0; i < n; i++ {
				m.Weights[genNodeID(r)] = genFloat(r)
			}
		}
		return m
	},
	"LaunchTasks": func(r *rand.Rand) any {
		m := core.LaunchTasks{PurgeBefore: core.BatchID(genInt64(r))}
		if n := r.Intn(8); n > 0 {
			m.Tasks = make([]core.TaskDescriptor, n)
			for i := range m.Tasks {
				m.Tasks[i] = genTaskDescriptor(r)
			}
		}
		return m
	},
	"CancelTasks": func(r *rand.Rand) any {
		m := core.CancelTasks{}
		if n := r.Intn(6); n > 0 {
			m.IDs = make([]core.TaskID, n)
			for i := range m.IDs {
				m.IDs[i] = genTaskID(r)
			}
		}
		return m
	},
	"KillTask": func(r *rand.Rand) any {
		m := core.KillTask{}
		if n := r.Intn(4); n > 0 {
			m.Tasks = make([]core.TaskAttempt, n)
			for i := range m.Tasks {
				m.Tasks[i] = core.TaskAttempt{ID: genTaskID(r), Attempt: r.Intn(4)}
			}
		}
		return m
	},
	"DataReady": func(r *rand.Rand) any {
		m := core.DataReady{Dep: genDep(r), Holder: genNodeID(r), Size: genInt64(r)}
		switch n := r.Intn(5); n {
		case 0: // no blocks: the layout before blocks existed
		case 1:
			m.Blocks = []core.ReadyBlock{} // gob collapses this to nil; binary must match
		default:
			m.Blocks = make([]core.ReadyBlock, n-1)
			for i := range m.Blocks {
				m.Blocks[i] = core.ReadyBlock{Partition: int(genInt64(r)), Data: genBytes(r)}
			}
		}
		return m
	},
	"TaskStatus": func(r *rand.Rand) any {
		m := core.TaskStatus{
			ID:         genTaskID(r),
			Worker:     genNodeID(r),
			Attempt:    r.Intn(4),
			OK:         r.Intn(2) == 0,
			Err:        genString(r),
			NeedsJob:   r.Intn(2) == 0,
			NeedsState: r.Intn(2) == 0,
			RunNanos:   genInt64(r),
			QueueNanos: genInt64(r),
			TraceSpan:  r.Uint64(),
		}
		if n := r.Intn(6); n > 0 {
			m.OutputSizes = make([]int64, n)
			for i := range m.OutputSizes {
				m.OutputSizes[i] = genInt64(r)
			}
		}
		return m
	},
	"Heartbeat": func(r *rand.Rand) any {
		m := core.Heartbeat{
			Worker:      genNodeID(r),
			Nanos:       genInt64(r),
			Incarnation: genInt64(r),
			Seq:         r.Uint64(),
			Full:        r.Intn(2) == 0,
		}
		if n := r.Intn(5); n > 0 {
			m.Counters = make([]core.CounterSample, n)
			for i := range m.Counters {
				m.Counters[i] = core.CounterSample{Key: genString(r), Value: genInt64(r)}
			}
		}
		if n := r.Intn(4); n > 0 {
			m.Gauges = make([]core.GaugeSample, n)
			for i := range m.Gauges {
				m.Gauges[i] = core.GaugeSample{Key: genString(r), Value: genFloat(r)}
			}
		}
		if n := r.Intn(3); n > 0 {
			m.Summaries = make([]core.SummarySample, n)
			for i := range m.Summaries {
				m.Summaries[i] = core.SummarySample{
					Key: genString(r), Count: genInt64(r), Sum: genFloat(r),
					P50: genFloat(r), P95: genFloat(r), P99: genFloat(r), Max: genFloat(r),
				}
			}
		}
		return m
	},
	"RegisterWorker": func(r *rand.Rand) any {
		return core.RegisterWorker{Worker: genNodeID(r), Addr: genString(r)}
	},
	"TakeCheckpoint": func(r *rand.Rand) any {
		return core.TakeCheckpoint{Job: genString(r), UpTo: core.BatchID(genInt64(r))}
	},
	"CheckpointData": func(r *rand.Rand) any {
		return core.CheckpointData{
			Job: genString(r), Stage: r.Intn(8), Partition: r.Intn(64),
			UpTo: core.BatchID(genInt64(r)), State: genBytes(r),
		}
	},
	"RestoreState": func(r *rand.Rand) any {
		return core.RestoreState{
			Job: genString(r), Stage: r.Intn(8), Partition: r.Intn(64),
			UpTo: core.BatchID(genInt64(r)), State: genBytes(r),
		}
	},
	"FetchRequest": func(r *rand.Rand) any {
		m := shuffle.FetchRequest{ID: r.Uint64(), From: genNodeID(r)}
		if n := r.Intn(6); n > 0 {
			m.Blocks = make([]shuffle.BlockID, n)
			for i := range m.Blocks {
				m.Blocks[i] = genBlockID(r)
			}
		}
		return m
	},
	"FetchResponse": func(r *rand.Rand) any {
		m := shuffle.FetchResponse{ID: r.Uint64()}
		if n := r.Intn(4); n > 0 {
			m.Blocks = make([]shuffle.Block, n)
			for i := range m.Blocks {
				m.Blocks[i] = shuffle.Block{ID: genBlockID(r), Data: genBytes(r)}
			}
		}
		if n := r.Intn(3); n > 0 {
			m.Missing = make([]shuffle.BlockID, n)
			for i := range m.Missing {
				m.Missing[i] = genBlockID(r)
			}
		}
		return m
	},
}

// zeroValues are the explicit degenerate cases run in addition to the random
// instances.
var zeroValues = []any{
	core.SubmitJob{}, core.MembershipUpdate{}, core.LaunchTasks{},
	core.CancelTasks{}, core.KillTask{}, core.DataReady{}, core.TaskStatus{},
	core.Heartbeat{}, core.RegisterWorker{}, core.TakeCheckpoint{}, core.CheckpointData{},
	core.RestoreState{}, shuffle.FetchRequest{}, shuffle.FetchResponse{},
}

func binaryRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	b, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	out, err := rpc.DefaultCodec.DecodeMessage(b)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func assertEquivalent(t *testing.T, msg any) {
	t.Helper()
	viaBinary := binaryRoundTrip(t, msg)
	viaGob := gobRoundTrip(t, msg)
	if !reflect.DeepEqual(viaBinary, viaGob) {
		t.Errorf("codec divergence for %T:\n input: %+v\nbinary: %+v\n   gob: %+v",
			msg, msg, viaBinary, viaGob)
	}
}

// TestCodecDifferential is the oracle: binary round-trip == gob round-trip,
// deep-equal, for zero values and 300 seeded random instances of every wire
// message type.
func TestCodecDifferential(t *testing.T) {
	for _, msg := range zeroValues {
		assertEquivalent(t, msg)
	}
	const perType = 300
	for name, gen := range generators {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(20260807))
			for i := 0; i < perType; i++ {
				assertEquivalent(t, gen(r))
			}
		})
	}
}

// TestCodecDifferentialStream runs the same oracle through the stream form:
// a mixed sequence of every message type sent over a real TCP route must
// arrive equal to its gob round trip.
func TestCodecDifferentialStream(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var msgs []any
	for _, gen := range generators {
		for i := 0; i < 5; i++ {
			msgs = append(msgs, gen(r))
		}
	}
	decoded := tcpRoundTrip(t, msgs)
	for i := range msgs {
		if want := gobRoundTrip(t, msgs[i]); !reflect.DeepEqual(decoded[i], want) {
			t.Errorf("stream message %d (%T) diverged", i, msgs[i])
		}
	}
}
