package main

import (
	"sync"
	"sync/atomic"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// winPart names one operation of the benchmark: the result of one window on
// one reduce partition.
type winPart struct {
	window    int64 // window start, unix nanoseconds
	partition int
}

// digest summarizes the (key, value) pairs of one window result without
// keeping them: their count, the sum of values and an order-independent
// hash. Two results with equal digests are equal for the benchmark's
// purposes; the sink stays cheap enough to leave in the measured run, and
// memory does not grow with the key space.
type digest struct {
	n    int64
	sum  int64
	hash uint64
}

func (d *digest) add(key uint64, val int64) {
	d.n++
	d.sum += val
	d.hash += mix(key ^ mix(uint64(val)))
}

// emission is what the sink saw for one winPart.
type emission struct {
	at       int64 // unix nanoseconds of the first emission
	d        digest
	conflict bool // a later emission carried a different result
}

// recorder is the benchmark's view of a run from the two ends of the job:
// when the generator ran and what it produced, and when each window result
// came out and what it held. It exists in every run; the per-call spans are
// recorded only on traced runs (spans != nil).
type recorder struct {
	spec     *workloadSpec
	interval int64

	startOnce  sync.Once
	started    chan struct{} // closed when startNanos is known
	startNanos int64

	// Indexed by batch*mapParts+partition. lag holds 1 + how late the
	// generator ran for the first execution of that source task (0 = not
	// run); records holds what it produced.
	lag     []atomic.Int64
	records []atomic.Int64

	firstEmit atomic.Int64 // unix nanoseconds of the first sink call

	mu        sync.Mutex
	emissions map[winPart]*emission

	spans *spanLog // nil on untraced runs
	// Traced runs only: records routed to each reduce partition before
	// combining.
	routed []atomic.Int64
}

func newRecorder(spec *workloadSpec, numBatches int, spans *spanLog) *recorder {
	return &recorder{
		spec:      spec,
		interval:  int64(spec.interval),
		started:   make(chan struct{}),
		lag:       make([]atomic.Int64, numBatches*spec.mapParts),
		records:   make([]atomic.Int64, numBatches*spec.mapParts),
		emissions: make(map[winPart]*emission),
		spans:     spans,
		routed:    make([]atomic.Int64, spec.reduceParts),
	}
}

// wrapSource times the generator from the moment its batch closed: the
// engine is an open loop (batch b closes at StartNanos+(b+1)*interval
// whether or not the system kept up), so how late the generator ran is the
// backlog signal.
func (r *recorder) wrapSource(src dag.SourceFunc) dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		begin := time.Now()
		r.startOnce.Do(func() {
			r.startNanos = b.Start - b.Batch*r.interval
			close(r.started)
		})
		recs := src(b)
		if i := int(b.Batch)*r.spec.mapParts + b.Partition; i < len(r.lag) {
			r.lag[i].CompareAndSwap(0, begin.UnixNano()-b.End+1)
			r.records[i].Store(int64(len(recs)))
		}
		if r.spans != nil {
			r.spans.add("workload.source", begin, time.Now(), 0, b.Batch)
		}
		return recs
	}
}

// wrapOp times the narrow-operator chain and counts what it routes to each
// reduce partition. Traced runs only; op may be nil (pass-through).
func (r *recorder) wrapOp(op dag.NarrowOp) dag.NarrowOp {
	part := data.NewHashPartitioner(r.spec.reduceParts)
	return func(in []data.Record) []data.Record {
		begin := time.Now()
		out := in
		if op != nil {
			out = op(in)
		}
		end := time.Now()
		counts := make([]int64, r.spec.reduceParts)
		for i := range out {
			counts[part.Partition(out[i].Key)]++
		}
		for p, c := range counts {
			r.routed[p].Add(c)
		}
		batch := int64(-1)
		if len(out) > 0 {
			batch = (out[0].Time - r.startNanos) / r.interval
		}
		r.spans.add("dag.narrow", begin, end, 0, batch)
		return out
	}
}

// sink records the first emission of every (window, partition) and checks
// later ones against it: recovery may re-emit a window, which is harmless
// when the result is the same and a failure when it is not.
func (r *recorder) sink(batch int64, partition int, out []data.Record) {
	now := time.Now()
	r.firstEmit.CompareAndSwap(0, now.UnixNano())
	// Almost every call carries one window; recovery can deliver several.
	byWindow := make(map[int64]*digest, 1)
	var d *digest
	for i := range out {
		if d == nil || out[i].Time != out[i-1].Time {
			if d = byWindow[out[i].Time]; d == nil {
				d = new(digest)
				byWindow[out[i].Time] = d
			}
		}
		d.add(out[i].Key, out[i].Val)
	}
	r.mu.Lock()
	for w, d := range byWindow {
		k := winPart{window: w, partition: partition}
		if e, ok := r.emissions[k]; ok {
			if e.d != *d {
				e.conflict = true
			}
			continue
		}
		r.emissions[k] = &emission{at: now.UnixNano(), d: *d}
	}
	r.mu.Unlock()
	if r.spans != nil {
		r.spans.add("sink", now, time.Now(), 0, batch)
	}
}

// snapshot returns a copy of the emissions seen so far.
func (r *recorder) snapshot() map[winPart]emission {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[winPart]emission, len(r.emissions))
	for k, e := range r.emissions {
		out[k] = *e
	}
	return out
}
