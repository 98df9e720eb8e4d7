package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/shuffle"
	"drizzle/internal/streaming"
	"drizzle/internal/workload"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A burst of slow windows in one part of the run must not move the reported
// percentile; the same burst in two parts must.
func TestMedianPercentileIgnoresOneBadPart(t *testing.T) {
	steady := func() []float64 {
		vs := make([]float64, 100)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	burst := func() []float64 {
		vs := steady()
		for i := 80; i < 100; i++ {
			vs[i] = 5000
		}
		return vs
	}
	want := percentile(steady(), 95)
	if got := medianPercentile([][]float64{steady(), burst(), steady()}, 95); got != want {
		t.Errorf("one bad part of three: p95 = %v, want %v", got, want)
	}
	if got := medianPercentile([][]float64{burst(), steady(), burst()}, 95); got != 5000 {
		t.Errorf("two bad parts of three: p95 = %v, want 5000", got)
	}
	if got := medianPercentile([][]float64{nil, steady(), nil}, 95); got != want {
		t.Errorf("empty parts must be skipped: p95 = %v, want %v", got, want)
	}
}

// Expected values are what Python's statistics.quantiles(values, n=4)
// returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// tinySpec is a hand-built workload: two map partitions, each emitting in
// every batch one record for key 1 and one for the key of its partition.
func tinySpec() (*workloadSpec, jobParts) {
	spec := &workloadSpec{
		name: "tiny", interval: 10 * time.Millisecond, windowBatches: 2,
		mapParts: 2, reduceParts: 2, workers: 1, combine: streaming.NoCombine,
		limit: time.Second,
	}
	parts := jobParts{
		source: func(b dag.BatchInfo) []data.Record {
			return []data.Record{
				{Key: 1, Val: 1, Time: b.Start},
				{Key: uint64(10 + b.Partition), Val: 5, Time: b.End - 1},
			}
		},
		universe: []uint64{1, 10, 11},
	}
	return spec, parts
}

func TestReferenceOnHandBuiltCase(t *testing.T) {
	spec, parts := tinySpec()
	const start = int64(1_000_000_000)
	w := start + 4*int64(spec.interval) // third window: batches 4 and 5
	got := reference(spec, parts, start, []int64{w})

	// Per window: key 1 is counted twice per batch, keys 10 and 11 get 5
	// per batch each.
	want := map[winPart]*digest{}
	part := data.NewHashPartitioner(spec.reduceParts)
	for key, val := range map[uint64]int64{1: 4, 10: 10, 11: 10} {
		k := winPart{window: w, partition: part.Partition(key)}
		if want[k] == nil {
			want[k] = new(digest)
		}
		want[k].add(key, val)
	}
	if len(got) != len(want) {
		t.Fatalf("reference has %d results, want %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != *d {
			t.Errorf("reference[%+v] = %+v, want %+v", k, got[k], *d)
		}
	}
}

// The benchmark's per-batch reference must agree with the workload's own
// whole-range reference.
func TestReferenceMatchesYahooExpectedViewCounts(t *testing.T) {
	spec, err := workloadByName("yahoo-combine")
	if err != nil {
		t.Fatal(err)
	}
	const seed, scale = 7, 0.01
	parts := spec.build(spec, seed, scale)
	y := workload.NewYahoo(workload.YahooConfig{
		Campaigns: 100, AdsPerCampaign: 10,
		EventsPerSecPerPartition: scaled(yahooRate, scale),
		WindowSize:               spec.window(), Seed: seed,
	})
	start := int64(1_700_000_000) * int64(time.Second)
	w := start + 6*int64(spec.interval)
	counts := y.ExpectedViewCounts(spec.mapParts, w, w+int64(spec.window()))
	want := map[winPart]*digest{}
	part := data.NewHashPartitioner(spec.reduceParts)
	for wk, n := range counts {
		k := winPart{window: wk[0], partition: part.Partition(uint64(wk[1]))}
		if want[k] == nil {
			want[k] = new(digest)
		}
		want[k].add(uint64(wk[1]), n)
	}
	got := reference(spec, parts, start, []int64{w})
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("reference has %d results, ExpectedViewCounts %d", len(got), len(want))
	}
	for k, d := range want {
		if got[k] != *d {
			t.Errorf("partition %d: reference %+v, ExpectedViewCounts %+v", k.partition, got[k], *d)
		}
	}
}

func TestSinkCountsFirstEmissionOnly(t *testing.T) {
	spec, _ := tinySpec()
	rec := newRecorder(spec, 4, nil)
	out := []data.Record{{Key: 1, Val: 4, Time: 100}, {Key: 10, Val: 10, Time: 100}}
	rec.sink(1, 0, out)
	first := rec.snapshot()[winPart{window: 100, partition: 0}]
	time.Sleep(time.Millisecond)

	// Recovery re-emits the same result, in another order: not a new
	// sample, not a conflict.
	rec.sink(3, 0, []data.Record{out[1], out[0]})
	again := rec.snapshot()[winPart{window: 100, partition: 0}]
	if again.at != first.at || again.conflict {
		t.Errorf("re-emission changed the sample: first %+v, then %+v", first, again)
	}
	if n := len(rec.snapshot()); n != 1 {
		t.Errorf("%d emissions recorded, want 1", n)
	}

	// A re-emission with another value is a failed operation.
	rec.sink(4, 0, []data.Record{{Key: 1, Val: 5, Time: 100}, out[1]})
	if e := rec.snapshot()[winPart{window: 100, partition: 0}]; !e.conflict || e.at != first.at {
		t.Errorf("conflicting re-emission not flagged: %+v", e)
	}
	// The same window on another partition is its own operation.
	rec.sink(4, 1, out)
	if n := len(rec.snapshot()); n != 2 {
		t.Errorf("%d emissions recorded, want 2", n)
	}
}

func TestRecoveryTimesOnSyntheticTimeline(t *testing.T) {
	const s = int64(time.Second)
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	kills := []int64{10 * s, 20 * s}
	timeline := []lateEmission{
		{at: 9 * s, latency: ms(900)},          // before the first kill: ignored
		{at: 10*s + s/2, latency: ms(30)},      // on time
		{at: 11 * s, latency: ms(700)},         // late
		{at: 11*s + s/4, latency: ms(251)},     // last late one of cycle 1
		{at: 12 * s, latency: ms(250)},         // exactly the threshold: on time
		{at: 20*s + 4*s/5, latency: ms(800)},   // cycle 2
		{at: 24 * s, latency: ms(300)},         // the join's hiccup still counts
		{at: 25*s + s/10, latency: ms(10_000)}, // after the end of the run
	}
	got := recoveryTimes(kills, 25*s, timeline)
	if len(got) != 2 || got[0] != 1.25 || got[1] != 4 {
		t.Errorf("recoveryTimes = %v, want [1.25 4]", got)
	}
	if got := recoveryTimes([]int64{30 * s}, 40*s, timeline); len(got) != 1 || got[0] != 0 {
		t.Errorf("kill with no late window: %v, want [0]", got)
	}
}

func TestKillScheduleIsPhaseLocked(t *testing.T) {
	spec, err := workloadByName("video-kill")
	if err != nil {
		t.Fatal(err)
	}
	warmup, total := batchCounts(spec, 3*time.Second, 20*time.Second)
	const start = int64(1_700_000_000_000_000_000)
	evs := killSchedule(spec, start, warmup, total)
	if len(evs) != 2*spec.kills {
		t.Fatalf("%d events, want %d", len(evs), 2*spec.kills)
	}
	group := int64(groupSize) * int64(spec.interval)
	from, to := start+int64(warmup)*int64(spec.interval), start+int64(total)*int64(spec.interval)
	for i, ev := range evs {
		if ev.at <= from || ev.at >= to {
			t.Errorf("event %d outside the measured interval", i)
		}
		if ev.kill != (i%2 == 0) {
			t.Errorf("event %d: kills and joins must alternate, starting with a kill", i)
		}
		if ev.kill && (ev.at-start)%group != group*35/100 {
			t.Errorf("kill %d is %d ns into its group, want %d", i, (ev.at-start)%group, group*35/100)
		}
	}
}

// The replay takes Store.Put apart to time its steps; the pieces must still
// produce the bytes Put stores.
func TestReplayBlocksMatchStorePut(t *testing.T) {
	for _, n := range []int{0, 3, 5000} {
		recs := make([]data.Record, n)
		for i := range recs {
			recs[i] = data.Record{Key: mix(uint64(i)), Val: 1, Time: int64(i)}
		}
		store := shuffle.NewStore()
		id := shuffle.BlockID{Job: "j"}
		store.Put(id, recs)
		want, _ := store.GetRaw(id)
		got := data.CompressBatch(data.EncodeBatchColumnar(nil, recs), blockCompressThreshold)
		if !bytes.Equal(got, want) {
			t.Errorf("%d records: replay block differs from Store.Put (%d vs %d bytes)", n, len(got), len(want))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(better string, median, spread float64) metricSummary {
		return metricSummary{metricDef: metricDef{Better: better, Bound: 0.10}, Median: median, Spread: spread}
	}
	for _, c := range []struct {
		old, new metricSummary
		want     string
	}{
		{m(lower, 100, 0.02), m(lower, 105, 0.02), withinBound},
		{m(lower, 100, 0.02), m(lower, 111, 0.02), regressed},
		{m(lower, 100, 0.02), m(lower, 85, 0.02), improved},
		{m(higher, 100, 0.02), m(higher, 85, 0.02), regressed},
		{m(higher, 100, 0.02), m(higher, 115, 0.02), improved},
		{m(lower, 100, 0.20), m(lower, 150, 0.02), unresolved},
		{m(lower, 100, 0.02), m(lower, 150, 0.20), unresolved},
	} {
		if _, got := compare(c.old, c.new); got != c.want {
			t.Errorf("compare(%v -> %v, %s) = %q, want %q", c.old.Median, c.new.Median, c.old.Better, got, c.want)
		}
	}
}

// BENCHMARK.json repeats the tables in metrics.go and workloads.go; the two
// must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, default -seconds = %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d differs: %+v vs %s", i, doc.Workloads[i], w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in metrics.go", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload for two seconds at a tenth of its rate,
// with the kill, the join and the reference check, and expects correct
// results and no goroutine left behind once the cluster is closed.
//
// Under the race detector the kill is left out: at the parent commit
// rpc.(*TCPNetwork).dialRoute formats a back-off error from fields it reads
// after releasing dialMu, and two tasks sending to a killed worker trip the
// detector there about every other run. This change may not touch
// internal/rpc; drop the exception when that race is fixed.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, spec := range workloads {
		if raceEnabled && spec.kills > 0 {
			t.Logf("%s: running without its kill under -race (known race in rpc.dialRoute)", spec.name)
			noKill := *spec
			noKill.kills = 0
			spec = &noKill
		}
		res, err := runSmoke(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Checked == 0 {
			var buf bytes.Buffer
			res.print(&buf)
			t.Errorf("%s: not correct:\n%s", spec.name, buf.String())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after every cluster was closed:\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}
