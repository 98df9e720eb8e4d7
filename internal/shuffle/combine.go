package shuffle

import (
	"math/bits"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// TimeBucket maps an event time to an aggregation bucket. Map-side
// combining of windowed aggregates must not merge records across window
// boundaries, so the combiner buckets by the consumer's window assignment.
// IdentityBucket collapses all times (per-batch, unwindowed aggregation).
type TimeBucket func(nanos int64) int64

// IdentityBucket merges regardless of event time.
func IdentityBucket(int64) int64 { return 0 }

// WindowBucket returns a TimeBucket aligned to the given window spec.
func WindowBucket(w dag.WindowSpec) TimeBucket {
	return func(nanos int64) int64 { return w.Assign(nanos) }
}

// AggTable is a reusable partial-aggregation table over (key, bucket)
// groups, kept densely in first-seen order behind an open-addressed index at
// most half full, so the same input always drains to the same records — and
// blocks. It grows with the distinct groups it holds at once, not with the
// records folded through it. The zero value is ready to use; it is not safe
// for concurrent use.
type AggTable struct {
	groups []aggGroup
	index  []uint32 // position+1 in groups, 0 when empty; a power of two long
	shift  uint     // maps a hash onto index
}

type aggGroup struct {
	key         uint64
	bucket, val int64
}

// Fold merges recs[idx[0]], recs[idx[1]], ... (every record when idx is
// nil) into the table.
func (t *AggTable) Fold(recs []data.Record, idx []uint32, f dag.ReduceFunc, bucket TimeBucket) {
	n := len(recs)
	if idx != nil {
		n = len(idx)
	}
	for j := 0; j < n; j++ {
		r := &recs[j]
		if idx != nil {
			r = &recs[idx[j]]
		}
		t.Add(r.Key, bucket(r.Time), r.Val, f)
	}
}

// Add merges val into group (key, b) with f.
func (t *AggTable) Add(key uint64, b, val int64, f dag.ReduceFunc) {
	if 2*(len(t.groups)+1) > len(t.index) {
		t.index = make([]uint32, max(64, 2*len(t.index)))
		t.shift = uint(64 - bits.TrailingZeros(uint(len(t.index))))
		for p, g := range t.groups {
			*t.slot(g.key, g.bucket) = uint32(p + 1)
		}
	}
	if s := t.slot(key, b); *s == 0 {
		t.groups = append(t.groups, aggGroup{key, b, val})
		*s = uint32(len(t.groups))
	} else {
		g := &t.groups[*s-1]
		g.val = f(g.val, val)
	}
}

// slot returns the index slot of group (key, b): the one holding it, or the
// empty one it would go in.
func (t *AggTable) slot(key uint64, b int64) *uint32 {
	mask := uint64(len(t.index) - 1)
	for i := (key ^ uint64(b)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 >> t.shift; ; i = (i + 1) & mask {
		if p := t.index[i]; p == 0 || t.groups[p-1].key == key && t.groups[p-1].bucket == b {
			return &t.index[i]
		}
	}
}

// Each calls fn for every group, in the order the groups first appeared.
func (t *AggTable) Each(fn func(key uint64, b, val int64)) {
	for _, g := range t.groups {
		fn(g.key, g.bucket, g.val)
	}
}

// Reset empties the table, keeping its memory.
func (t *AggTable) Reset() {
	t.groups = t.groups[:0]
	clear(t.index)
}

// Drain appends one record per group to dst in the order the groups first
// appeared, Time being the bucket value, and empties the table.
func (t *AggTable) Drain(dst []data.Record) []data.Record {
	t.Each(func(key uint64, b, val int64) { dst = append(dst, data.Record{Key: key, Val: val, Time: b}) })
	t.Reset()
	return dst
}

// Combine partially aggregates records by (key, time bucket) with f,
// emitting one record per group whose Time is the bucket value. This is the
// partial-merge aggregation the paper's workload analysis (Table 2) found
// covers >95% of aggregation queries, and the source of the 2–3× gains in
// Figure 8. Payloads are dropped: a combined record is an aggregate, and
// all combinable workloads aggregate the numeric Val.
func Combine(recs []data.Record, f dag.ReduceFunc, bucket TimeBucket) []data.Record {
	var t AggTable
	t.Fold(recs, nil, f, bucket)
	return t.Drain(nil)
}
