package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/engine"
	obsmetrics "drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/streaming"
	"drizzle/internal/trace"
)

const jobName = "bench"

// runOpts selects how one cluster run is made.
type runOpts struct {
	seed    uint64
	measure time.Duration // measured interval
	warmup  time.Duration // discarded lead-in
	// scale shrinks the input rate (smoke mode); 1 otherwise.
	scale float64
	// enforce makes latency limits and the sustained-rate check count.
	// Smoke mode turns it off: under the race detector nothing keeps up.
	enforce bool
	// spans, when set, makes this a traced run: the benchmark's wrappers
	// record spans and the engine's tracer and registry are on.
	spans *spanLog
}

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	at        time.Time
	cpu       time.Duration // user + system
	transport rpc.TCPStatsSnapshot
	// Traced runs only.
	allocBytes uint64
	gcCPU      float64 // seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readUsage(c *cluster, traced bool) usage {
	u := usage{at: time.Now(), cpu: cpuTime(), transport: c.transportStats()}
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.allocBytes = ms.TotalAlloc
		s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64 {
			u.gcCPU = s[0].Value.Float64()
		}
	}
	return u
}

// clusterRun is everything one run of a workload on the cluster produced,
// before it is judged.
type clusterRun struct {
	spec  *workloadSpec
	opts  runOpts
	parts jobParts
	rec   *recorder
	stats *engine.RunStats

	numBatches    int
	warmupBatches int
	from, to      usage // start and end of the measured interval
	peakRSS       float64
	kills, joins  []int64 // unix nanoseconds
	emissions     map[winPart]emission

	// Traced runs only.
	engineSpans []trace.Span
	registry    obsmetrics.Snapshot
}

func (r *clusterRun) measuredFrom() int64 {
	return r.rec.startNanos + int64(r.warmupBatches)*int64(r.spec.interval)
}

func (r *clusterRun) measuredTo() int64 {
	return r.rec.startNanos + int64(r.numBatches)*int64(r.spec.interval)
}

// records is the input of the measured interval: what the generator
// produced for the batches after warm-up, each counted once however often
// recovery re-ran it.
func (r *clusterRun) records() int64 {
	var n int64
	for i := r.warmupBatches * r.spec.mapParts; i < len(r.rec.records); i++ {
		n += r.rec.records[i].Load()
	}
	return n
}

// lags returns how late the generator ran, per source task of the measured
// interval in batch order, in nanoseconds.
func (r *clusterRun) lags() []float64 {
	var out []float64
	for i := r.warmupBatches * r.spec.mapParts; i < len(r.rec.lag); i++ {
		if v := r.rec.lag[i].Load(); v > 0 {
			out = append(out, float64(v-1))
		}
	}
	return out
}

func buildJob(spec *workloadSpec, src dag.SourceFunc, op dag.NarrowOp, sink dag.SinkFunc) (*dag.Job, error) {
	ctx := streaming.NewContext(jobName, spec.interval)
	s := ctx.Source(spec.mapParts, src)
	if op != nil {
		s = s.Apply(op)
	}
	s.ReduceByKeyAndWindow(dag.Sum, spec.window(), spec.reduceParts, spec.combine).Sink(sink)
	return ctx.Build()
}

// batchCounts turns the warm-up and measured durations into batch counts.
// Both are rounded up to whole windows and the warm-up also to whole
// groups, so no window and no group straddles the start of measurement.
func batchCounts(spec *workloadSpec, warmup, measure time.Duration) (warmupBatches, numBatches int) {
	roundUp := func(n, m int) int { return (n + m - 1) / m * m }
	unit := spec.windowBatches * groupSize // a multiple of both
	warmupBatches = roundUp(int((warmup+spec.interval-1)/spec.interval), unit)
	measured := roundUp(int((measure+spec.interval-1)/spec.interval), spec.windowBatches)
	return warmupBatches, warmupBatches + measured
}

// event is one scheduled disturbance of a kill workload.
type event struct {
	at   int64 // unix nanoseconds
	kill bool  // else join
}

// minKillCycle is the shortest cycle a kill is given: detection, replay, the
// join and its state migration have to fit before the next kill.
const minKillCycle = 5 * time.Second

// killSchedule spreads the workload's kills over the measured interval:
// each cycle (measured/kills) has a kill 15 % in and a join 45 % of a cycle
// later. Kill times are moved to 35 % into their scheduling group, so that
// the phase between a kill and the next group barrier is the same on every
// run. Runs too short for that many cycles of minKillCycle get fewer kills,
// but at least one.
func killSchedule(spec *workloadSpec, startNanos int64, warmupBatches, numBatches int) []event {
	if spec.kills == 0 {
		return nil
	}
	group := int64(groupSize) * int64(spec.interval)
	from := startNanos + int64(warmupBatches)*int64(spec.interval)
	measured := int64(numBatches-warmupBatches) * int64(spec.interval)
	kills := spec.kills
	for kills > 1 && measured/int64(kills) < int64(minKillCycle) {
		kills--
	}
	cycle := measured / int64(kills)
	var evs []event
	for k := 0; k < kills; k++ {
		kill := from + int64(k)*cycle + cycle*15/100
		kill = startNanos + (kill-startNanos)/group*group + group*35/100
		evs = append(evs, event{at: kill, kill: true}, event{at: kill + cycle*45/100})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// prepare builds the workload's job around a fresh recorder and starts a
// cluster for it. The caller closes the cluster.
func prepare(spec *workloadSpec, o runOpts, warmupBatches, numBatches int) (*clusterRun, *cluster, error) {
	r := &clusterRun{spec: spec, opts: o, warmupBatches: warmupBatches, numBatches: numBatches}
	r.parts = spec.build(spec, o.seed, o.scale)
	r.rec = newRecorder(spec, numBatches, o.spans)
	op := r.parts.op
	co := clusterOpts{workers: spec.workers, durable: spec.durable}
	if o.spans != nil {
		op = r.rec.wrapOp(op)
		co.tracer = trace.New("bench", 1<<18)
		co.registry = obsmetrics.NewRegistry()
	}
	job, err := buildJob(spec, r.rec.wrapSource(r.parts.source), op, r.rec.sink)
	if err != nil {
		return nil, nil, err
	}
	c, err := newCluster(co, jobName, job)
	return r, c, err
}

// setupTrial measures set-up once: from nothing to a cluster that is up,
// has the job and has emitted its first window result.
func setupTrial(spec *workloadSpec, seed uint64, began time.Time) (time.Duration, error) {
	r, c, err := prepare(spec, runOpts{seed: seed, scale: 1}, 0, spec.windowBatches)
	if err != nil {
		return 0, err
	}
	defer c.close()
	if _, err := c.driver.Run(jobName, r.numBatches); err != nil {
		return 0, fmt.Errorf("%s: setup run: %w", spec.name, err)
	}
	first := r.rec.firstEmit.Load()
	if first == 0 {
		return 0, fmt.Errorf("%s: setup run emitted no window", spec.name)
	}
	return time.Unix(0, first).Sub(began), nil
}

// runCluster builds the cluster, runs the workload on it once and tears it
// down. Judging the outcome is evaluate's job.
func runCluster(spec *workloadSpec, o runOpts) (*clusterRun, error) {
	warmupBatches, numBatches := batchCounts(spec, o.warmup, o.measure)
	r, c, err := prepare(spec, o, warmupBatches, numBatches)
	if err != nil {
		return nil, err
	}
	defer c.close()
	traced := o.spans != nil

	// The controller reads the process's usage when warm-up ends and fires
	// the kills and joins. It learns the job epoch from the first source
	// call, one interval into the run.
	finished := make(chan struct{})
	controllerDone := make(chan struct{})
	sleepUntil := func(nanos int64) bool {
		t := time.NewTimer(time.Until(time.Unix(0, nanos)))
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-finished:
			return false
		}
	}
	var ctlErr error
	go func() {
		defer close(controllerDone)
		select {
		case <-r.rec.started:
		case <-finished:
			return
		}
		if !sleepUntil(r.measuredFrom()) {
			return
		}
		r.from = readUsage(c, traced)
		next := 0 // index of the next worker to kill
		for _, ev := range killSchedule(spec, r.rec.startNanos, r.warmupBatches, r.numBatches) {
			if !sleepUntil(ev.at) {
				return
			}
			now := time.Now().UnixNano()
			if ev.kill {
				c.kill(next)
				next++
				r.kills = append(r.kills, now)
			} else if err := c.addWorker(); err != nil {
				ctlErr = fmt.Errorf("join: %w", err)
				return
			} else {
				r.joins = append(r.joins, now)
			}
		}
	}()

	stats, runErr := c.driver.Run(jobName, r.numBatches)
	close(finished)
	<-controllerDone
	if runErr != nil {
		return nil, fmt.Errorf("%s: run: %w", spec.name, runErr)
	}
	if ctlErr != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, ctlErr)
	}
	if r.from.at.IsZero() {
		return nil, fmt.Errorf("%s: run ended before warm-up did", spec.name)
	}
	r.to = readUsage(c, traced)
	r.peakRSS = peakRSSMB()
	r.stats = stats
	r.emissions = r.rec.snapshot()
	if traced {
		r.engineSpans = c.cfg.Tracer.Snapshot()
		r.registry = c.cfg.Metrics.Snapshot()
	}
	return r, nil
}
