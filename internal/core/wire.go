package core

import (
	"drizzle/internal/rpc"
	"drizzle/internal/wire"
)

// Hand-rolled binary codecs for the control-plane messages, registered with
// the rpc codec. Layouts
// are straight field-order varint/string encodings (see internal/wire);
// checkpoint state payloads ride through wire.AppendCompressed so large
// snapshots are snappy-compressed above the threshold. Tags 1..15 belong to
// this package and are wire-stable: changing a layout or reusing a tag is a
// protocol break between mixed-version processes.
//
// Decoders must mirror gob's round-trip normalization — zero-length slices
// and maps decode to nil — because the differential test asserts
// deep-equality between a binary round-trip and a gob round-trip of the
// same value (gob, the wire format before this codec, is kept there as the
// reference).

const (
	tagSubmitJob        = 1
	tagMembershipUpdate = 2
	tagLaunchTasks      = 3
	tagCancelTasks      = 4
	tagKillTask         = 5
	tagDataReady        = 6
	tagTaskStatus       = 7
	tagHeartbeat        = 8
	tagTakeCheckpoint   = 9
	tagCheckpointData   = 10
	tagRestoreState     = 11
	tagRegisterWorker   = 12
)

// stateCompressThreshold is the size above which checkpoint state payloads
// are snappy-compressed on the wire.
const stateCompressThreshold = 4 << 10

func appendTaskID(dst []byte, id TaskID) []byte {
	dst = wire.AppendVarint(dst, int64(id.Batch))
	dst = wire.AppendVarint(dst, int64(id.Stage))
	return wire.AppendVarint(dst, int64(id.Partition))
}

func readTaskID(r *wire.Reader) TaskID {
	return TaskID{
		Batch:     BatchID(r.Varint()),
		Stage:     r.Int(),
		Partition: r.Int(),
	}
}

func appendDep(dst []byte, d Dep) []byte {
	dst = wire.AppendString(dst, d.Job)
	dst = wire.AppendVarint(dst, int64(d.Batch))
	dst = wire.AppendVarint(dst, int64(d.Stage))
	return wire.AppendVarint(dst, int64(d.MapPartition))
}

func readDep(r *wire.Reader) Dep {
	return Dep{
		Job:          r.String(),
		Batch:        BatchID(r.Varint()),
		Stage:        r.Int(),
		MapPartition: r.Int(),
	}
}

func appendTaskDescriptor(dst []byte, t *TaskDescriptor) []byte {
	dst = wire.AppendString(dst, t.Job)
	dst = appendTaskID(dst, t.ID)
	dst = wire.AppendVarint(dst, int64(t.Attempt))
	dst = wire.AppendVarint(dst, t.NotBefore)
	dst = wire.AppendUvarint(dst, uint64(len(t.Deps)))
	for _, d := range t.Deps {
		dst = appendDep(dst, d)
	}
	dst = wire.AppendUvarint(dst, uint64(len(t.KnownLocations)))
	for _, l := range t.KnownLocations {
		dst = appendDep(dst, l.Dep)
		dst = wire.AppendString(dst, string(l.Node))
	}
	dst = wire.AppendBool(dst, t.NotifyDownstream)
	dst = wire.AppendVarint(dst, t.Group)
	dst = wire.AppendVarint(dst, int64(t.MinState))
	return wire.AppendUvarint(dst, t.TraceSpan)
}

// readTaskDescriptor decodes one descriptor. arena, when non-nil, is a
// shared backing store for Deps slices: a LaunchTasks bundle carries one
// small Deps slice per descriptor, and carving them out of one append-grown
// arena replaces per-descriptor allocations with a handful of doublings
// (slices carved before a doubling keep their old backing array — correct,
// just briefly retained).
func readTaskDescriptor(r *wire.Reader, arena *[]Dep) TaskDescriptor {
	var t TaskDescriptor
	t.Job = r.String()
	t.ID = readTaskID(r)
	t.Attempt = r.Int()
	t.NotBefore = r.Varint()
	if n := r.Count(4); n > 0 {
		if arena != nil {
			start := len(*arena)
			for i := 0; i < n; i++ {
				*arena = append(*arena, readDep(r))
			}
			t.Deps = (*arena)[start : start+n : start+n]
		} else {
			t.Deps = make([]Dep, n)
			for i := range t.Deps {
				t.Deps[i] = readDep(r)
			}
		}
	}
	if n := r.Count(5); n > 0 {
		t.KnownLocations = make([]DepLocation, n)
		for i := range t.KnownLocations {
			d := readDep(r)
			t.KnownLocations[i] = DepLocation{Dep: d, Node: rpc.NodeID(r.String())}
		}
	}
	t.NotifyDownstream = r.Bool()
	t.Group = r.Varint()
	t.MinState = BatchID(r.Varint())
	t.TraceSpan = r.Uvarint()
	return t
}

func init() {
	rpc.RegisterBinaryMessage(tagSubmitJob, SubmitJob{},
		func(dst []byte, msg any) []byte {
			m := msg.(SubmitJob)
			dst = wire.AppendString(dst, m.Job)
			return wire.AppendVarint(dst, m.StartNanos)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := SubmitJob{Job: r.String(), StartNanos: r.Varint()}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagMembershipUpdate, MembershipUpdate{},
		func(dst []byte, msg any) []byte {
			m := msg.(MembershipUpdate)
			dst = wire.AppendVarint(dst, m.Epoch)
			dst = wire.AppendUvarint(dst, uint64(len(m.Workers)))
			for _, w := range m.Workers {
				dst = wire.AppendString(dst, string(w))
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Addrs)))
			for n, a := range m.Addrs {
				dst = wire.AppendString(dst, string(n))
				dst = wire.AppendString(dst, a)
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Weights)))
			for n, w := range m.Weights {
				dst = wire.AppendString(dst, string(n))
				dst = wire.AppendFloat64(dst, w)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m MembershipUpdate
			m.Epoch = r.Varint()
			if n := r.Count(1); n > 0 {
				m.Workers = make([]rpc.NodeID, n)
				for i := range m.Workers {
					m.Workers[i] = rpc.NodeID(r.String())
				}
			}
			if n := r.Count(2); n > 0 {
				m.Addrs = make(map[rpc.NodeID]string, n)
				for i := 0; i < n; i++ {
					k := rpc.NodeID(r.String())
					m.Addrs[k] = r.String()
				}
			}
			if n := r.Count(9); n > 0 {
				m.Weights = make(map[rpc.NodeID]float64, n)
				for i := 0; i < n; i++ {
					k := rpc.NodeID(r.String())
					m.Weights[k] = r.Float64()
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagLaunchTasks, LaunchTasks{},
		func(dst []byte, msg any) []byte {
			m := msg.(LaunchTasks)
			dst = wire.AppendUvarint(dst, uint64(len(m.Tasks)))
			for i := range m.Tasks {
				dst = appendTaskDescriptor(dst, &m.Tasks[i])
			}
			return wire.AppendVarint(dst, int64(m.PurgeBefore))
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m LaunchTasks
			if n := r.Count(12); n > 0 {
				m.Tasks = make([]TaskDescriptor, n)
				arena := make([]Dep, 0, n) // most descriptors carry ~1 dep
				for i := range m.Tasks {
					m.Tasks[i] = readTaskDescriptor(r, &arena)
				}
			}
			m.PurgeBefore = BatchID(r.Varint())
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagCancelTasks, CancelTasks{},
		func(dst []byte, msg any) []byte {
			m := msg.(CancelTasks)
			dst = wire.AppendUvarint(dst, uint64(len(m.IDs)))
			for _, id := range m.IDs {
				dst = appendTaskID(dst, id)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m CancelTasks
			if n := r.Count(3); n > 0 {
				m.IDs = make([]TaskID, n)
				for i := range m.IDs {
					m.IDs[i] = readTaskID(r)
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagKillTask, KillTask{},
		func(dst []byte, msg any) []byte {
			m := msg.(KillTask)
			dst = wire.AppendUvarint(dst, uint64(len(m.Tasks)))
			for _, a := range m.Tasks {
				dst = appendTaskID(dst, a.ID)
				dst = wire.AppendVarint(dst, int64(a.Attempt))
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m KillTask
			if n := r.Count(4); n > 0 {
				m.Tasks = make([]TaskAttempt, n)
				for i := range m.Tasks {
					m.Tasks[i] = TaskAttempt{ID: readTaskID(r), Attempt: r.Int()}
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagDataReady, DataReady{},
		func(dst []byte, msg any) []byte {
			m := msg.(DataReady)
			dst = appendDep(dst, m.Dep)
			dst = wire.AppendString(dst, string(m.Holder))
			dst = wire.AppendVarint(dst, m.Size)
			// Blocks are an optional tail, absent when empty: a notification
			// without blocks is byte-identical to the layout before them.
			if len(m.Blocks) == 0 {
				return dst
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Blocks)))
			for _, blk := range m.Blocks {
				dst = wire.AppendVarint(dst, int64(blk.Partition))
				dst = wire.AppendBytes(dst, blk.Data)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := DataReady{Dep: readDep(r), Holder: rpc.NodeID(r.String()), Size: r.Varint()}
			if r.Remaining() > 0 {
				if n := r.Count(2); n > 0 { // min element: 1B partition + 1B length
					m.Blocks = make([]ReadyBlock, n)
					for i := range m.Blocks {
						m.Blocks[i] = ReadyBlock{Partition: r.Int(), Data: r.Bytes()}
					}
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagTaskStatus, TaskStatus{},
		func(dst []byte, msg any) []byte {
			m := msg.(TaskStatus)
			dst = appendTaskID(dst, m.ID)
			dst = wire.AppendString(dst, string(m.Worker))
			dst = wire.AppendVarint(dst, int64(m.Attempt))
			dst = wire.AppendBool(dst, m.OK)
			dst = wire.AppendString(dst, m.Err)
			dst = wire.AppendBool(dst, m.NeedsJob)
			dst = wire.AppendBool(dst, m.NeedsState)
			dst = wire.AppendUvarint(dst, uint64(len(m.OutputSizes)))
			for _, s := range m.OutputSizes {
				dst = wire.AppendVarint(dst, s)
			}
			dst = wire.AppendVarint(dst, m.RunNanos)
			dst = wire.AppendVarint(dst, m.QueueNanos)
			return wire.AppendUvarint(dst, m.TraceSpan)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m TaskStatus
			m.ID = readTaskID(r)
			m.Worker = rpc.NodeID(r.String())
			m.Attempt = r.Int()
			m.OK = r.Bool()
			m.Err = r.String()
			m.NeedsJob = r.Bool()
			m.NeedsState = r.Bool()
			if n := r.Count(1); n > 0 {
				m.OutputSizes = make([]int64, n)
				for i := range m.OutputSizes {
					m.OutputSizes[i] = r.Varint()
				}
			}
			m.RunNanos = r.Varint()
			m.QueueNanos = r.Varint()
			m.TraceSpan = r.Uvarint()
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagHeartbeat, Heartbeat{},
		func(dst []byte, msg any) []byte {
			m := msg.(Heartbeat)
			dst = wire.AppendString(dst, string(m.Worker))
			dst = wire.AppendVarint(dst, m.Nanos)
			dst = wire.AppendVarint(dst, m.Incarnation)
			dst = wire.AppendUvarint(dst, m.Seq)
			dst = wire.AppendBool(dst, m.Full)
			dst = wire.AppendUvarint(dst, uint64(len(m.Counters)))
			for _, s := range m.Counters {
				dst = wire.AppendString(dst, s.Key)
				dst = wire.AppendVarint(dst, s.Value)
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Gauges)))
			for _, s := range m.Gauges {
				dst = wire.AppendString(dst, s.Key)
				dst = wire.AppendFloat64(dst, s.Value)
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Summaries)))
			for _, s := range m.Summaries {
				dst = wire.AppendString(dst, s.Key)
				dst = wire.AppendVarint(dst, s.Count)
				dst = wire.AppendFloat64(dst, s.Sum)
				dst = wire.AppendFloat64(dst, s.P50)
				dst = wire.AppendFloat64(dst, s.P95)
				dst = wire.AppendFloat64(dst, s.P99)
				dst = wire.AppendFloat64(dst, s.Max)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m Heartbeat
			m.Worker = rpc.NodeID(r.String())
			m.Nanos = r.Varint()
			m.Incarnation = r.Varint()
			m.Seq = r.Uvarint()
			m.Full = r.Bool()
			if n := r.Count(3); n > 0 {
				m.Counters = make([]CounterSample, n)
				for i := range m.Counters {
					m.Counters[i] = CounterSample{Key: r.String(), Value: r.Varint()}
				}
			}
			if n := r.Count(9); n > 0 {
				m.Gauges = make([]GaugeSample, n)
				for i := range m.Gauges {
					m.Gauges[i] = GaugeSample{Key: r.String(), Value: r.Float64()}
				}
			}
			if n := r.Count(42); n > 0 { // min element: 1B key + 1B count + 5×8B floats
				m.Summaries = make([]SummarySample, n)
				for i := range m.Summaries {
					m.Summaries[i] = SummarySample{
						Key:   r.String(),
						Count: r.Varint(),
						Sum:   r.Float64(),
						P50:   r.Float64(),
						P95:   r.Float64(),
						P99:   r.Float64(),
						Max:   r.Float64(),
					}
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagRegisterWorker, RegisterWorker{},
		func(dst []byte, msg any) []byte {
			m := msg.(RegisterWorker)
			dst = wire.AppendString(dst, string(m.Worker))
			return wire.AppendString(dst, m.Addr)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := RegisterWorker{Worker: rpc.NodeID(r.String()), Addr: r.String()}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagTakeCheckpoint, TakeCheckpoint{},
		func(dst []byte, msg any) []byte {
			m := msg.(TakeCheckpoint)
			dst = wire.AppendString(dst, m.Job)
			return wire.AppendVarint(dst, int64(m.UpTo))
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := TakeCheckpoint{Job: r.String(), UpTo: BatchID(r.Varint())}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagCheckpointData, CheckpointData{},
		func(dst []byte, msg any) []byte {
			m := msg.(CheckpointData)
			dst = wire.AppendString(dst, m.Job)
			dst = wire.AppendVarint(dst, int64(m.Stage))
			dst = wire.AppendVarint(dst, int64(m.Partition))
			dst = wire.AppendVarint(dst, int64(m.UpTo))
			return wire.AppendCompressed(dst, m.State, stateCompressThreshold)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m CheckpointData
			m.Job = r.String()
			m.Stage = r.Int()
			m.Partition = r.Int()
			m.UpTo = BatchID(r.Varint())
			m.State = r.Compressed()
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagRestoreState, RestoreState{},
		func(dst []byte, msg any) []byte {
			m := msg.(RestoreState)
			dst = wire.AppendString(dst, m.Job)
			dst = wire.AppendVarint(dst, int64(m.Stage))
			dst = wire.AppendVarint(dst, int64(m.Partition))
			dst = wire.AppendVarint(dst, int64(m.UpTo))
			return wire.AppendCompressed(dst, m.State, stateCompressThreshold)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m RestoreState
			m.Job = r.String()
			m.Stage = r.Int()
			m.Partition = r.Int()
			m.UpTo = BatchID(r.Varint())
			m.State = r.Compressed()
			return m, r.Done()
		})
}
