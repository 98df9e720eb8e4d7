package workload

import (
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// TestEventPathAllocations guards the properties the event path is built
// for: Gen allocates its records and one arena however many events it
// renders; the engine's source, rendering into a slot's scratch, allocates
// nothing once the scratch has grown to the batch; and turning a payload
// into a keyed record allocates nothing.
func TestEventPathAllocations(t *testing.T) {
	y := NewYahoo(YahooConfig{Campaigns: 100, AdsPerCampaign: 10, EventsPerSecPerPartition: 100_000, WindowSize: time.Second, Seed: 1})
	v := NewVideo(VideoConfig{Sessions: 50_000, EventsPerSecPerPartition: 100_000, ZipfS: 1.2, WindowSize: time.Second, Seed: 1})
	for _, w := range []struct {
		name   string
		gen    func(partition int, from, to int64) []data.Record
		source dag.SourceFunc
		op     dag.NarrowOp
	}{
		{"yahoo", y.Gen, y.SourceFunc(), y.ParseFilterJoinOp()},
		{"video", v.Gen, v.SourceFunc(), v.ParseOp()},
	} {
		var recs []data.Record
		for _, events := range []int{1_000, 30_000} {
			to := epoch + int64(events)*int64(time.Second)/100_000
			allocs := testing.AllocsPerRun(5, func() { recs = w.gen(0, epoch, to) })
			if len(recs) != events {
				t.Fatalf("%s: generated %d events, want %d", w.name, len(recs), events)
			}
			if allocs != 2 {
				t.Errorf("%s: Gen of %d events made %v allocations, want 2 (records and arena)", w.name, events, allocs)
			}
			// AllocsPerRun's warm-up call is the slot's first task: it sizes
			// the scratch, and every later task renders into it.
			var sc data.SourceScratch
			b := dag.BatchInfo{Start: epoch, End: to, Scratch: &sc}
			allocs = testing.AllocsPerRun(5, func() { recs = w.source(b) })
			if len(recs) != events {
				t.Fatalf("%s: the source rendered %d events, want %d", w.name, len(recs), events)
			}
			if allocs != 0 {
				t.Errorf("%s: the source rendering %d events into a lent scratch made %v allocations, want 0", w.name, events, allocs)
			}
		}
		// The op writes its output over its input, so every run parses a
		// fresh copy of the record headers (the payloads are only read).
		work := make([]data.Record, len(recs))
		kept := 0
		allocs := testing.AllocsPerRun(5, func() {
			copy(work, recs)
			kept = len(w.op(work))
		})
		if kept == 0 {
			t.Fatalf("%s: the op kept no event", w.name)
		}
		if allocs != 0 {
			t.Errorf("%s: parsing %d events made %v allocations, want 0", w.name, len(recs), allocs)
		}
	}
}
