package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// sampledWindows is how many evenly spaced windows are recomputed when a
// workload is not checked in full.
const sampledWindows = 20

// verdict is the outcome of one run: one operation per expected (window,
// reduce partition) result of the measured interval.
type verdict struct {
	// latenciesMS holds first emission minus window end, one per operation
	// that emitted and whose window ended outside every kill's recovery
	// budget.
	latenciesMS []float64
	// byPart holds the same samples by the part of the measured interval
	// their window began in (see latencyParts).
	byPart      [latencyParts][]float64
	attempted   int
	missing     int // never emitted
	conflicting int // re-emitted with a different result
	wrong       int // differs from the reference
	late        int // emitted after the workload's limit
	checked     int // operations compared with the reference
	// unsustained is why the run did not keep up with its input, or "".
	unsustained string
	// recoveries holds, per kill, the seconds from the kill to the emission
	// of the last window of that cycle that was later than lateThreshold.
	recoveries []float64
}

func (v *verdict) failed() int {
	n := v.missing + v.conflicting + v.wrong + v.late
	if v.unsustained != "" && n == 0 {
		n = v.attempted
	}
	return n
}

// expectedPartitions returns the reduce partitions that own at least one
// key of the universe, ascending.
func expectedPartitions(universe []uint64, reduceParts int) []int {
	part := data.NewHashPartitioner(reduceParts)
	seen := make([]bool, reduceParts)
	for _, k := range universe {
		seen[part.Partition(k)] = true
	}
	var out []int
	for p, ok := range seen {
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// reference recomputes the results of the given windows with the
// workload's own generator and operators, run bare and sequentially per
// window. It is a pure function of the job epoch: batch b covers
// [startNanos+b*interval, startNanos+(b+1)*interval).
func reference(spec *workloadSpec, parts jobParts, startNanos int64, windows []int64) map[winPart]digest {
	win := dag.WindowSpec{Size: spec.window()}
	part := data.NewHashPartitioner(spec.reduceParts)
	interval := int64(spec.interval)
	one := func(w int64) map[int]*digest {
		sums := make(map[uint64]int64)
		first := (w - startNanos) / interval
		for b := first; b < first+int64(spec.windowBatches); b++ {
			for p := 0; p < spec.mapParts; p++ {
				recs := parts.source(dag.BatchInfo{
					Batch: b, Partition: p,
					Start: startNanos + b*interval, End: startNanos + (b+1)*interval,
				})
				if parts.op != nil {
					recs = parts.op(recs)
				}
				for i := range recs {
					if win.Assign(recs[i].Time) == w {
						sums[recs[i].Key] += recs[i].Val
					}
				}
			}
		}
		out := make(map[int]*digest)
		for k, v := range sums {
			p := part.Partition(k)
			if out[p] == nil {
				out[p] = new(digest)
			}
			out[p].add(k, v)
		}
		return out
	}

	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out = make(map[winPart]digest)
		ch  = make(chan int64)
	)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range ch {
				ds := one(w)
				mu.Lock()
				for p, d := range ds {
					out[winPart{window: w, partition: p}] = *d
				}
				mu.Unlock()
			}
		}()
	}
	for _, w := range windows {
		ch <- w
	}
	close(ch)
	wg.Wait()
	return out
}

// checkMargin is how close to a kill or a join a window must lie to be
// recomputed for certain.
const checkMargin = 700 * time.Millisecond

// windowsToCheck picks the measured windows that are recomputed: all of
// them for checkAll workloads; otherwise sampledWindows evenly spaced ones
// plus every window within checkMargin of a kill or a join, where recovery
// could have lost or doubled input.
func windowsToCheck(spec *workloadSpec, measured []int64, events []int64) []int64 {
	if spec.checkAll || len(measured) <= sampledWindows {
		return measured
	}
	pick := make(map[int64]bool)
	for i := 0; i < sampledWindows; i++ {
		pick[measured[i*len(measured)/sampledWindows]] = true
	}
	size, margin := int64(spec.window()), int64(checkMargin)
	for _, w := range measured {
		for _, at := range events {
			if w+size > at-margin && w < at+margin {
				pick[w] = true
			}
		}
	}
	out := make([]int64, 0, len(pick))
	for w := range pick {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// recoveryTimes applies the recovery_s definition to a timeline: for each
// kill, the cycle runs to the next kill (or the end of the run), and the
// recovery is the distance from the kill to the latest emission in the
// cycle whose latency exceeded lateThreshold; 0 when no window was late.
func recoveryTimes(kills []int64, end int64, emitted []lateEmission) []float64 {
	out := make([]float64, len(kills))
	for i, k := range kills {
		next := end
		if i+1 < len(kills) {
			next = kills[i+1]
		}
		var last int64
		for _, e := range emitted {
			if e.at >= k && e.at < next && e.latency > lateThreshold && e.at > last {
				last = e.at
			}
		}
		if last > 0 {
			out[i] = float64(last-k) / 1e9
		}
	}
	return out
}

// lateThreshold is the latency above which a window counts as disturbed by
// a kill when measuring recovery_s.
const lateThreshold = 250 * time.Millisecond

// recoveryBudget is how long after a kill a window may end and still be
// left out of the latency percentiles: one and a half heartbeat timeouts,
// the time failure detection is entitled to. What happens inside it is what
// recovery_s measures; recoveries that outlast it show in p95.
const recoveryBudget = 750 * time.Millisecond

// inRecovery reports whether a window ending at end falls inside the
// recovery budget of one of the kills.
func inRecovery(end int64, kills []int64) bool {
	for _, k := range kills {
		if end >= k && end < k+int64(recoveryBudget) {
			return true
		}
	}
	return false
}

// latencyParts is the number of equal parts the measured interval is cut
// into for the 95th percentile, which is reported as the median of the
// parts' own: one stall of the box, or one recovery that goes wrong, puts a
// dozen windows into the tail of one part and leaves the median alone, where
// it would carry the whole run's percentile with it. Three, so that on
// video-kill each part is one cycle of kill and join.
const latencyParts = 3

// lateEmission is one first emission on the recovery timeline.
type lateEmission struct {
	at      int64 // unix nanoseconds
	latency time.Duration
}

// evaluate judges a finished run: every expected operation of the measured
// interval is looked up in what the sink saw, the chosen windows are
// compared with the reference, and the run is checked for having kept up.
func evaluate(r *clusterRun) *verdict {
	v := &verdict{}
	spec := r.spec
	size := int64(spec.window())
	var measured []int64
	for w := r.measuredFrom(); w+size <= r.measuredTo(); w += size {
		measured = append(measured, w)
	}
	partitions := expectedPartitions(r.parts.universe, spec.reduceParts)

	var timeline []lateEmission
	for _, w := range measured {
		for _, p := range partitions {
			v.attempted++
			e, ok := r.emissions[winPart{window: w, partition: p}]
			switch {
			case !ok:
				v.missing++
				continue
			case e.conflict:
				v.conflicting++
			}
			lat := time.Duration(e.at - (w + size))
			timeline = append(timeline, lateEmission{at: e.at, latency: lat})
			if !inRecovery(w+size, r.kills) {
				ms := float64(lat) / 1e6
				v.latenciesMS = append(v.latenciesMS, ms)
				part := (w - r.measuredFrom()) * latencyParts / (r.measuredTo() - r.measuredFrom())
				v.byPart[part] = append(v.byPart[part], ms)
			}
			if r.opts.enforce && lat > spec.limit && !e.conflict {
				v.late++
			}
		}
	}

	events := append(append([]int64(nil), r.kills...), r.joins...)
	check := windowsToCheck(spec, measured, events)
	want := reference(spec, r.parts, r.rec.startNanos, check)
	for _, w := range check {
		for _, p := range partitions {
			k := winPart{window: w, partition: p}
			e, ok := r.emissions[k]
			if !ok || e.conflict {
				continue // already counted
			}
			v.checked++
			if e.d != want[k] {
				v.wrong++
			}
		}
	}
	// A reference result on a partition that was not expected to emit means
	// the universe is wrong, which would hide missing results.
	expected := make(map[int]bool, len(partitions))
	for _, p := range partitions {
		expected[p] = true
	}
	for k := range want {
		if !expected[k.partition] {
			v.wrong++
		}
	}

	v.recoveries = recoveryTimes(r.kills, r.to.at.UnixNano(), timeline)
	if r.opts.enforce {
		v.unsustained = sustained(r)
	}
	return v
}

// sustained reports why a run did not keep up, or "". An open loop that
// falls behind shows it in two ways: the generator runs later and later
// (compared here between the first and the last third of the measured
// interval), and the run outlasts its schedule.
func sustained(r *clusterRun) string {
	lags := r.lags()
	if third := len(lags) / 3; third > 0 {
		first, last := median(lags[:third]), median(lags[len(lags)-third:])
		if last-first > float64(r.spec.interval) {
			return fmt.Sprintf("source-start lag grew from %.1f ms to %.1f ms over the measured interval",
				first/1e6, last/1e6)
		}
	}
	// RunStats.Wall also holds the wait for the first window boundary, so
	// the overrun is taken from the close of the last batch instead.
	schedule := time.Duration(r.numBatches) * r.spec.interval
	if over := time.Duration(r.to.at.UnixNano() - r.measuredTo()); float64(over) > 0.05*float64(schedule) {
		return fmt.Sprintf("run ended %v after its %v schedule did", over.Round(time.Millisecond), schedule)
	}
	return ""
}
