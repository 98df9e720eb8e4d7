package data

import "slices"

// Partitioner assigns records to shuffle partitions.
type Partitioner interface {
	// Partition returns the partition index in [0, NumPartitions) for key.
	Partition(key uint64) int
	// NumPartitions reports the partition count.
	NumPartitions() int
}

// HashPartitioner partitions by a multiplicative hash of the key. It is the
// default partitioner for all shuffle operations.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner returns a HashPartitioner over n partitions.
// It panics if n <= 0: a shuffle with no output partitions is a plan bug.
func NewHashPartitioner(n int) HashPartitioner {
	if n <= 0 {
		panic("data: partitioner needs at least one partition")
	}
	return HashPartitioner{n: n}
}

// Partition implements Partitioner. Keys produced by HashString are already
// well mixed, but small integer keys (used by synthetic workloads) are not,
// so we remix with a Fibonacci multiplier before reducing.
func (p HashPartitioner) Partition(key uint64) int {
	key *= 0x9e3779b97f4a7c15
	key ^= key >> 32
	return int(key % uint64(p.n))
}

// NumPartitions implements Partitioner.
func (p HashPartitioner) NumPartitions() int { return p.n }

// PartitionIndex groups the indices of a record slice by shuffle partition
// without moving the records: 4 bytes of permutation per record where
// copying them out costs a 40-byte Record each. The zero value is ready to
// use, and Build reuses the index's memory, so one PartitionIndex serves
// every map task an executor slot runs. It is not safe for concurrent use.
type PartitionIndex struct {
	// perm holds, from Build until the next Build, the record indices
	// grouped by partition and in source order within each; ends[r] is
	// where partition r's group stops. parts is Build's scratch (the
	// partition of each record).
	perm, parts []uint32
	ends        []int
}

// Build indexes recs by p. The index describes recs as it was at the call:
// it holds positions, not records, and is only meaningful against the same
// unmodified slice. len(recs) must fit in 32 bits.
func (x *PartitionIndex) Build(recs []Record, p Partitioner) {
	n := p.NumPartitions()
	x.ends = append(x.ends[:0], make([]int, n)...)
	x.parts = slices.Grow(x.parts[:0], len(recs))[:len(recs)]
	x.perm = slices.Grow(x.perm[:0], len(recs))[:len(recs)]
	for i := range recs {
		r := p.Partition(recs[i].Key)
		x.parts[i] = uint32(r)
		x.ends[r]++
	}
	// Turn counts into group starts, scatter, and the starts have become
	// the ends.
	sum := 0
	for r, c := range x.ends {
		x.ends[r] = sum
		sum += c
	}
	for i, r := range x.parts {
		x.perm[x.ends[r]] = uint32(i)
		x.ends[r]++
	}
}

// NumPartitions reports the partition count of the last Build.
func (x *PartitionIndex) NumPartitions() int { return len(x.ends) }

// Part returns the indices of the records in partition r, in source order.
// The slice is valid until the next Build.
func (x *PartitionIndex) Part(r int) []uint32 {
	start := 0
	if r > 0 {
		start = x.ends[r-1]
	}
	return x.perm[start:x.ends[r]]
}

// PartitionRecords splits recs into per-partition slices using p. The result
// always has length p.NumPartitions(); empty partitions are non-nil empty
// slices so callers can index without nil checks. The slices are copies the
// caller owns; the engine's map side shuffles from a PartitionIndex instead.
func PartitionRecords(recs []Record, p Partitioner) [][]Record {
	var x PartitionIndex
	x.Build(recs, p)
	out := make([][]Record, x.NumPartitions())
	for r := range out {
		part := x.Part(r)
		out[r] = make([]Record, len(part))
		for j, i := range part {
			out[r][j] = recs[i]
		}
	}
	return out
}
