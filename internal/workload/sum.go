package workload

import (
	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// Sum microbenchmark (§5.2): each task computes the sum of pseudo-random
// numbers. The paper uses it for weak scaling — the per-task compute is
// fixed (<1 ms, or ~100× that for the compute-bound variant of Figure 5a)
// while the cluster grows, so any increase in time-per-micro-batch is pure
// coordination overhead.

// SumConfig parameterizes the microbenchmark.
type SumConfig struct {
	// NumbersPerTask is how many pseudo-random numbers each task sums
	// (Figure 4a uses a value giving <1 ms of compute; Figure 5a uses
	// 100×).
	NumbersPerTask int
	// Seed makes runs deterministic.
	Seed uint64
}

// SumSourceFunc returns a source that emits a single record per partition
// whose Val is the sum of NumbersPerTask pseudo-random numbers — the
// compute happens inside the source task, as in the paper's benchmark. The
// record is drawn from the task's scratch, like every source's.
func SumSourceFunc(cfg SumConfig) dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		sum := SumRandom(cfg.NumbersPerTask, cfg.Seed^uint64(b.Batch)^uint64(b.Partition)<<32)
		return append(b.Scratch.Records(1), data.Record{Key: uint64(b.Partition), Val: sum, Time: b.Start})
	}
}

// SumRandom computes the sum of n pseudo-random numbers from seed; it is
// the unit of work a weak-scaling task performs.
func SumRandom(n int, seed uint64) int64 {
	var sum int64
	x := mix(seed)
	for i := 0; i < n; i++ {
		x = mix(x)
		sum += int64(x & 0xFFFF)
	}
	return sum
}
