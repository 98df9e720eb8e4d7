package bench

import (
	"runtime"
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/workload"
)

// BenchmarkEventPath drives one source task's events from generation to the
// keyed records the shuffle sees — the source, then the job's narrow op — the
// way a map task does before it partitions its output. One op is one task's
// micro-batch at the repo benchmark's rates and interval; ns/event, B/event
// and allocs/event divide by the events generated.
//
//   - yahoo: 20 000 ad events of ~185 B, of which the op keeps the views
//     (the yahoo-combine workload).
//   - video: 5 000 heartbeats of ~360 B, all kept (the video-kill workload).
//
// The plain rows call Gen, which allocates a fresh arena per batch. The
// /lent rows run what the engine runs: SourceFunc rendering into one
// SourceScratch lent for the whole benchmark, as an executor slot lends its
// own to every task, and they also report the two layers apart — gen-ns and
// parse-ns per event.
func BenchmarkEventPath(b *testing.B) {
	const (
		interval = 100 * time.Millisecond
		epoch    = int64(1_700_000_100) * int64(time.Second)
	)
	y := workload.NewYahoo(workload.YahooConfig{
		Campaigns: 100, AdsPerCampaign: 10, EventsPerSecPerPartition: 200_000,
		WindowSize: 2 * interval, Seed: 1,
	})
	v := workload.NewVideo(workload.VideoConfig{
		Sessions: 50_000, EventsPerSecPerPartition: 50_000, ZipfS: 1.2,
		WindowSize: 3 * interval, Seed: 1,
	})
	for _, shape := range []struct {
		name   string
		gen    func(partition int, from, to int64) []data.Record
		source dag.SourceFunc
		op     dag.NarrowOp
	}{
		{"yahoo", y.Gen, y.SourceFunc(), y.ParseFilterJoinOp()},
		{"video", v.Gen, v.SourceFunc(), v.ParseOp()},
	} {
		batch := func(bt int64) (partition int, start int64) {
			start = epoch + bt*int64(interval)
			return int(bt % 4), start
		}
		b.Run(shape.name, func(b *testing.B) {
			runEventPath(b, false, func(r *eventPathRun, bt int64) {
				p, start := batch(bt)
				recs := shape.gen(p, start, start+int64(interval))
				r.events += len(recs)
				r.kept += len(shape.op(recs))
			})
		})
		b.Run(shape.name+"/lent", func(b *testing.B) {
			var scratch data.SourceScratch
			runEventPath(b, true, func(r *eventPathRun, bt int64) {
				p, start := batch(bt)
				t0 := time.Now()
				recs := shape.source(dag.BatchInfo{Partition: p, Start: start, End: start + int64(interval), Scratch: &scratch})
				t1 := time.Now()
				r.kept += len(shape.op(recs))
				r.gen += t1.Sub(t0)
				r.parse += time.Since(t1)
				r.events += len(recs)
			})
		})
	}
}

// eventPathRun is what the tasks of one row add up.
type eventPathRun struct {
	events, kept int
	gen, parse   time.Duration
}

// runEventPath warms task up once (the lent rows' first call sizes the
// scratch), then times b.N more tasks and reports per-event figures, with
// the gen and parse layers apart if layers is set.
func runEventPath(b *testing.B, layers bool, task func(r *eventPathRun, bt int64)) {
	var r eventPathRun
	task(&r, 0)
	r = eventPathRun{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task(&r, 1+int64(i))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if r.kept == 0 {
		b.Fatal("the op kept no event")
	}
	n := float64(r.events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
	if layers {
		b.ReportMetric(float64(r.gen.Nanoseconds())/n, "gen-ns/event")
		b.ReportMetric(float64(r.parse.Nanoseconds())/n, "parse-ns/event")
	}
}
