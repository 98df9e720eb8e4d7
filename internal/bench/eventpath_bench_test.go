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
// keyed records the shuffle sees — Gen, then the job's narrow op — the way a
// map task does before it partitions its output. One op is one task's
// micro-batch at the repo benchmark's rates and interval; ns/event, B/event
// and allocs/event divide by the events generated.
//
//   - yahoo: 20 000 ad events of ~185 B, of which the op keeps the views
//     (the yahoo-combine workload).
//   - video: 5 000 heartbeats of ~360 B, all kept (the video-kill workload).
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
		name string
		gen  func(partition int, from, to int64) []data.Record
		op   dag.NarrowOp
	}{
		{"yahoo", y.Gen, y.ParseFilterJoinOp()},
		{"video", v.Gen, v.ParseOp()},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var events, kept int
			task := func(bt int64) {
				start := epoch + bt*int64(interval)
				recs := shape.gen(int(bt%4), start, start+int64(interval))
				events += len(recs)
				kept += len(shape.op(recs))
			}
			task(0)
			events, kept = 0, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task(1 + int64(i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if kept == 0 {
				b.Fatal("the op kept no event")
			}
			n := float64(events)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
		})
	}
}
