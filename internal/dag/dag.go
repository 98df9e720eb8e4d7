// Package dag defines the logical plan both execution engines run: a
// topologically ordered list of stages connected by shuffle dependencies,
// exactly the "DAG of operators partitioned into stages with a barrier
// between them" of the paper's Section 2.2. Source stages generate records
// (the replayable-generator substitute for Kafka); interior stages consume a
// parent's shuffle output; terminal stages hold windowed state and drive a
// sink.
package dag

import (
	"fmt"
	"time"

	"drizzle/internal/data"
)

// NarrowOp transforms the records of one partition without repartitioning
// (a fused map/filter/flatMap chain).
//
// Ownership: in belongs to the running task and is valid only until the op
// returns. The op may modify it in place and return it (or a prefix of it),
// or return a slice of its own, which the task then owns; it must not keep
// in, or any part of it, for later. Payload bytes follow their record: an op
// that wants a payload beyond the call copies it.
type NarrowOp func(in []data.Record) []data.Record

// BatchInfo describes the micro-batch slice a source task must produce:
// the records of one partition whose event times fall in [Start, End).
type BatchInfo struct {
	// Batch is the micro-batch sequence number.
	Batch int64
	// Partition is the source partition index.
	Partition int
	// Start and End bound the batch's input interval in unix nanoseconds.
	Start, End int64
	// Scratch is memory the running task lends the source to render into;
	// nil (outside the engine) makes every draw allocate.
	Scratch *data.SourceScratch
}

// SourceFunc produces the input records of one partition of one micro-batch.
// It must be a pure function of its argument: recovery re-invokes it to
// replay lost inputs, the same contract Kafka offsets provide the real
// system. Its output must not depend on Scratch.
//
// Ownership: records and payloads drawn from b.Scratch are valid only until
// the task returns — the slot's next task draws the same memory. Whatever
// consumes them (ops, sinks) follows the NarrowOp and SinkFunc contracts and
// copies what it wants to keep.
type SourceFunc func(b BatchInfo) []data.Record

// SinkFunc receives the output records of one partition of one micro-batch
// of the terminal stage.
//
// Ownership: out is lent for the duration of the call. A sink that wants
// records afterwards copies them out before it returns; the engine is free
// to reuse or overwrite the slice as soon as it does. Sinks are called from
// executor slots concurrently and must synchronise their own state.
type SinkFunc func(batch int64, partition int, out []data.Record)

// ReduceFunc merges two values of the same key (sum, min, max, ...). It must
// be commutative and associative: both map-side combining and parallel
// recovery across micro-batches rely on reordering merges.
type ReduceFunc func(a, b int64) int64

// Sum is the ReduceFunc used by counting and summing workloads.
func Sum(a, b int64) int64 { return a + b }

// Max is a ReduceFunc keeping the larger value.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// WindowSpec configures event-time tumbling windows on a terminal stage.
type WindowSpec struct {
	// Size is the tumbling window length. Records are assigned to the
	// window [t - t mod Size, t - t mod Size + Size).
	Size time.Duration
}

// Assign returns the window start for event time t (nanoseconds).
func (w WindowSpec) Assign(t int64) int64 {
	size := int64(w.Size)
	start := t - t%size
	if t < 0 && t%size != 0 {
		start -= size
	}
	return start
}

// ShuffleSpec describes the shuffle output of a non-terminal stage.
type ShuffleSpec struct {
	// NumReducers is the partition count of the consuming stage.
	NumReducers int
	// Combine enables map-side partial aggregation (Section 3.5's
	// "optimization within a batch", the reduceBy-vs-groupBy ablation).
	Combine bool
	// CombineFunc merges values per key when Combine is set.
	CombineFunc ReduceFunc
	// Structure, when non-nil, restricts the communication pattern
	// (Section 3.6, "Improving Pre-Scheduling"): instead of an all-to-all
	// shuffle, producer partition m sends its entire (combined) output to
	// consumer partition m/FanIn, so each pre-scheduled consumer waits on
	// only FanIn notifications — the treeReduce pattern.
	Structure *CommStructure
}

// CommStructure is a known communication structure for a shuffle.
type CommStructure struct {
	// FanIn is the number of producer partitions feeding each consumer
	// partition (>= 2).
	FanIn int
}

// Consumer returns the consumer partition for producer partition m.
func (c CommStructure) Consumer(m int) int { return m / c.FanIn }

// Producers returns the producer partitions feeding consumer partition p,
// given the producer stage width.
func (c CommStructure) Producers(p, producerParts int) (lo, hi int) {
	lo = p * c.FanIn
	hi = lo + c.FanIn
	if hi > producerParts {
		hi = producerParts
	}
	return lo, hi
}

// Stage is one stage of the plan.
type Stage struct {
	// ID is the stage's index in Job.Stages.
	ID int
	// NumPartitions is the stage's task parallelism.
	NumPartitions int
	// Parents lists stage IDs whose shuffle output this stage consumes.
	// Empty for source stages.
	Parents []int
	// Source generates input for source stages (len(Parents) == 0).
	Source SourceFunc
	// Ops is the fused narrow-operator chain applied to the stage input.
	Ops []NarrowOp
	// Shuffle configures the stage's output shuffle; nil for the terminal
	// stage.
	Shuffle *ShuffleSpec
	// Window configures event-time windowed aggregation on a terminal
	// stage; nil means per-batch reduction (or raw pass-through if Reduce
	// is also nil).
	Window *WindowSpec
	// Reduce merges values per key on a terminal stage.
	Reduce ReduceFunc
	// Sink receives terminal-stage output.
	Sink SinkFunc
}

// IsSource reports whether the stage generates its own input.
func (s *Stage) IsSource() bool { return len(s.Parents) == 0 }

// IsTerminal reports whether the stage has no shuffle output.
func (s *Stage) IsTerminal() bool { return s.Shuffle == nil }

// Job is a complete streaming job: the stage DAG plus the micro-batch
// processing interval.
type Job struct {
	// Name labels the job in logs and metrics.
	Name string
	// Stages is the topologically ordered stage list; Stages[i].ID must
	// equal i and parents must precede children.
	Stages []Stage
	// Interval is the micro-batch duration T.
	Interval time.Duration
}

// Validate checks the structural invariants of the plan. Every engine calls
// it before execution; a plan bug should fail loudly at submit time, not as
// a hung shuffle.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return fmt.Errorf("dag: job %q has no stages", j.Name)
	}
	if j.Interval <= 0 {
		return fmt.Errorf("dag: job %q has non-positive interval %v", j.Name, j.Interval)
	}
	terminal := 0
	for i := range j.Stages {
		s := &j.Stages[i]
		if s.ID != i {
			return fmt.Errorf("dag: stage at index %d has ID %d", i, s.ID)
		}
		if s.NumPartitions <= 0 {
			return fmt.Errorf("dag: stage %d has %d partitions", i, s.NumPartitions)
		}
		if s.IsSource() != (s.Source != nil) {
			return fmt.Errorf("dag: stage %d: source stages (and only they) need a Source", i)
		}
		for _, p := range s.Parents {
			if p < 0 || p >= i {
				return fmt.Errorf("dag: stage %d has parent %d out of topological order", i, p)
			}
			parent := &j.Stages[p]
			if parent.Shuffle == nil {
				return fmt.Errorf("dag: stage %d consumes stage %d which has no shuffle output", i, p)
			}
			if parent.Shuffle.NumReducers != s.NumPartitions {
				return fmt.Errorf("dag: stage %d has %d partitions but parent %d shuffles to %d",
					i, s.NumPartitions, p, parent.Shuffle.NumReducers)
			}
		}
		if s.Shuffle != nil {
			if s.Shuffle.NumReducers <= 0 {
				return fmt.Errorf("dag: stage %d shuffle has %d reducers", i, s.Shuffle.NumReducers)
			}
			if s.Shuffle.Combine && s.Shuffle.CombineFunc == nil {
				return fmt.Errorf("dag: stage %d enables combining without a CombineFunc", i)
			}
			if st := s.Shuffle.Structure; st != nil {
				if st.FanIn < 2 {
					return fmt.Errorf("dag: stage %d structure fan-in %d must be >= 2", i, st.FanIn)
				}
				want := (s.NumPartitions + st.FanIn - 1) / st.FanIn
				if s.Shuffle.NumReducers != want {
					return fmt.Errorf("dag: stage %d structured shuffle needs %d reducers for fan-in %d over %d partitions, has %d",
						i, want, st.FanIn, s.NumPartitions, s.Shuffle.NumReducers)
				}
			}
			if s.Sink != nil || s.Window != nil {
				return fmt.Errorf("dag: stage %d has both a shuffle output and terminal features", i)
			}
		} else {
			terminal++
			if s.Window != nil && s.Reduce == nil {
				return fmt.Errorf("dag: stage %d has a window but no Reduce", i)
			}
			if s.Window != nil && s.Window.Size <= 0 {
				return fmt.Errorf("dag: stage %d has non-positive window size", i)
			}
		}
	}
	if terminal == 0 {
		return fmt.Errorf("dag: job %q has no terminal stage", j.Name)
	}
	// Every non-source stage must be reachable as a consumer of its
	// parents; ensure no shuffle output is dangling (unconsumed).
	consumed := make(map[int]bool)
	for i := range j.Stages {
		for _, p := range j.Stages[i].Parents {
			consumed[p] = true
		}
	}
	for i := range j.Stages {
		if j.Stages[i].Shuffle != nil && !consumed[i] {
			return fmt.Errorf("dag: stage %d shuffle output is never consumed", i)
		}
	}
	return nil
}

// ApplyOps runs the stage's narrow-operator chain over recs.
func (s *Stage) ApplyOps(recs []data.Record) []data.Record {
	for _, op := range s.Ops {
		recs = op(recs)
	}
	return recs
}

// Children returns the IDs of stages that consume stage id's shuffle output.
func (j *Job) Children(id int) []int {
	var out []int
	for i := range j.Stages {
		for _, p := range j.Stages[i].Parents {
			if p == id {
				out = append(out, i)
			}
		}
	}
	return out
}

// Filter returns a NarrowOp keeping records for which keep returns true. It
// filters in place to avoid allocation on the hot path.
func Filter(keep func(data.Record) bool) NarrowOp {
	return func(in []data.Record) []data.Record {
		out := in[:0]
		for _, r := range in {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
}

// Map returns a NarrowOp applying f to every record in place.
func Map(f func(data.Record) data.Record) NarrowOp {
	return func(in []data.Record) []data.Record {
		for i := range in {
			in[i] = f(in[i])
		}
		return in
	}
}

// FlatMap returns a NarrowOp replacing each record with zero or more records.
func FlatMap(f func(data.Record) []data.Record) NarrowOp {
	return func(in []data.Record) []data.Record {
		out := make([]data.Record, 0, len(in))
		for _, r := range in {
			out = append(out, f(r)...)
		}
		return out
	}
}
