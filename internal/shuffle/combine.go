package shuffle

import (
	"slices"

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

type combineKey struct {
	key    uint64
	bucket int64
}

// combiner is a reusable partial-aggregation table. It grows with the
// distinct (key, bucket) groups it has seen, not with the records folded
// through it, so a combiner kept across tasks settles at the size of the
// job's key space.
type combiner struct {
	table map[combineKey]int64
	agg   []data.Record // BlockWriter's drained output, reused per block
}

// fold merges recs[idx[0]], recs[idx[1]], ... (every record when idx is
// nil) into the table.
func (c *combiner) fold(recs []data.Record, idx []uint32, f dag.ReduceFunc, bucket TimeBucket) {
	if c.table == nil {
		c.table = make(map[combineKey]int64)
	}
	add := func(r *data.Record) {
		k := combineKey{key: r.Key, bucket: bucket(r.Time)}
		if v, ok := c.table[k]; ok {
			c.table[k] = f(v, r.Val)
		} else {
			c.table[k] = r.Val
		}
	}
	if idx == nil {
		for i := range recs {
			add(&recs[i])
		}
		return
	}
	for _, i := range idx {
		add(&recs[i])
	}
}

// drain appends one record per group to dst, Time being the bucket value,
// and empties the table.
func (c *combiner) drain(dst []data.Record) []data.Record {
	dst = slices.Grow(dst, len(c.table))
	for k, v := range c.table {
		dst = append(dst, data.Record{Key: k.key, Val: v, Time: k.bucket})
	}
	clear(c.table)
	return dst
}

// Combine partially aggregates records by (key, time bucket) with f,
// emitting one record per group whose Time is the bucket value. This is the
// partial-merge aggregation the paper's workload analysis (Table 2) found
// covers >95% of aggregation queries, and the source of the 2–3× gains in
// Figure 8. Payloads are dropped: a combined record is an aggregate, and
// all combinable workloads aggregate the numeric Val.
func Combine(recs []data.Record, f dag.ReduceFunc, bucket TimeBucket) []data.Record {
	if len(recs) == 0 {
		return recs
	}
	var c combiner
	c.fold(recs, nil, f, bucket)
	return c.drain(nil)
}
