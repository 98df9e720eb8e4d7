// Benchmark harness entry points: one testing.B benchmark per table and
// figure of the paper's evaluation, plus substrate microbenchmarks. The
// macro benchmarks execute a reduced-scale experiment per iteration and
// report the headline metric via b.ReportMetric; run the cmd/drizzle-bench
// binary for full-scale runs and complete tables.
//
//	go test -bench=. -benchmem
package drizzle_test

import (
	"testing"
	"time"

	"drizzle/internal/bench"
	"drizzle/internal/data"
	"drizzle/internal/metrics"
	"drizzle/internal/shuffle"
	"drizzle/internal/sim"
	"drizzle/internal/workload"

	"drizzle/internal/dag"
)

// --- Macro benchmarks: one per table/figure ---------------------------------

func benchMicro() bench.MicrobenchOpts {
	return bench.MicrobenchOpts{Machines: []int{4, 32, 128}, Batches: 30, Slots: 4}
}

func benchYahoo() bench.YahooOpts {
	o := bench.DefaultYahooOpts()
	o.Stream.Batches = 30
	o.Stream.Warmup = 500 * time.Millisecond
	o.RatePerPartition = 4000
	return o
}

func BenchmarkTable2QueryAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Table2(100000, 1)
		b.ReportMetric(r.Values["partial_merge_share"]*100, "partial-merge-%")
	}
}

func BenchmarkFig4aGroupScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig4a(benchMicro())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["spark/128"], "spark-ms/batch@128")
		b.ReportMetric(r.Values["drizzle-g100/128"], "drizzle-ms/batch@128")
	}
}

func BenchmarkFig4bBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig4b(benchMicro())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["spark/sched"], "spark-sched-ms")
		b.ReportMetric(r.Values["drizzle-g100/sched"], "drizzle-sched-ms")
	}
}

func BenchmarkFig5aComputeBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig5a(benchMicro())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle-g25/128"], "drizzle-g25-ms/batch@128")
	}
}

func BenchmarkFig5bPreScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig5b(benchMicro())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["spark/128"]/r.Values["drizzle-g100/128"], "speedup-x@128")
	}
}

func BenchmarkFig6aYahooLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6a(benchYahoo())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle(g=10)/p50"], "drizzle-p50-ms")
		b.ReportMetric(r.Values["spark/p50"], "spark-p50-ms")
		b.ReportMetric(r.Values["flink/p50"], "flink-p50-ms")
	}
}

func BenchmarkFig6bThroughput(b *testing.B) {
	o := bench.ThroughputOpts{
		Yahoo:             benchYahoo(),
		RatesPerPartition: []int{4000, 16000},
		TargetsMillis:     []float64{250, 1000},
	}
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6b(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle/1000"], "drizzle-ev/s@1s")
	}
}

func BenchmarkFig7FaultTolerance(b *testing.B) {
	o := benchYahoo()
	o.Stream.Batches = 100 // long enough for the continuous recovery cycle
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle(g=10)/spike"], "drizzle-spike-ms")
		b.ReportMetric(r.Values["flink/spike"], "flink-spike-ms")
	}
}

func BenchmarkFig8aOptimizedLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig8a(benchYahoo())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle(g=10)/p50"], "drizzle-p50-ms")
	}
}

func BenchmarkFig8bOptimizedThroughput(b *testing.B) {
	o := bench.ThroughputOpts{
		Yahoo:             benchYahoo(),
		RatesPerPartition: []int{4000, 16000},
		TargetsMillis:     []float64{250, 1000},
	}
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig8b(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle/1000"], "drizzle-ev/s@1s")
	}
}

func BenchmarkFig9VideoWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig9(benchYahoo())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["drizzle-video/p95"], "video-p95-ms")
	}
}

func BenchmarkGroupSizeTuner(b *testing.B) {
	o := benchYahoo()
	o.Stream.Batches = 40
	for i := 0; i < b.N; i++ {
		r, err := bench.TunerExperiment(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["final_group"], "final-group")
	}
}

func BenchmarkElasticity(b *testing.B) {
	o := benchYahoo()
	o.Stream.Batches = 40
	for i := 0; i < b.N; i++ {
		if _, err := bench.ElasticityExperiment(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks ----------------------------------------------

func makeRecords(n int) []data.Record {
	recs := make([]data.Record, n)
	for i := range recs {
		recs[i] = data.Record{Key: uint64(i * 2654435761), Val: int64(i), Time: int64(i)}
	}
	return recs
}

func BenchmarkRecordEncodeDecode(b *testing.B) {
	recs := makeRecords(1000)
	buf := make([]byte, 0, data.EncodedSize(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = data.EncodeBatchColumnar(buf[:0], recs)
		if _, _, err := data.DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkPartitionRecords(b *testing.B) {
	recs := makeRecords(10000)
	p := data.NewHashPartitioner(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.PartitionRecords(recs, p)
	}
}

func BenchmarkMapSideCombine(b *testing.B) {
	recs := makeRecords(10000)
	for i := range recs {
		recs[i].Key = uint64(i % 100) // 100 distinct keys: high combine ratio
	}
	win := shuffle.WindowBucket(dag.WindowSpec{Size: time.Second})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffle.Combine(recs, dag.Sum, win)
	}
}

func BenchmarkYahooEventParse(b *testing.B) {
	y := workload.NewYahoo(workload.DefaultYahooConfig())
	events := y.Gen(0, 0, int64(100*time.Millisecond))
	op := y.ParseFilterJoinOp()
	var bytes int64
	for _, e := range events {
		bytes += int64(len(e.Payload))
	}
	scratch := make([]data.Record, len(events))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, events)
		op(scratch)
	}
	b.SetBytes(bytes)
}

func BenchmarkYahooEventGen(b *testing.B) {
	y := workload.NewYahoo(workload.DefaultYahooConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.Gen(i, int64(i)*1e6, int64(i)*1e6+int64(10*time.Millisecond))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := metrics.NewHistogram()
	for i := 0; i < b.N; i++ {
		h.ObserveMillis(float64(i % 1000))
	}
}

func BenchmarkSimulator128Machines(b *testing.B) {
	cfg := sim.Config{
		Machines: 128,
		Slots:    4,
		Workload: sim.Workload{MapCompute: 500 * time.Microsecond, ReduceTasks: 16, ReduceCompute: time.Millisecond},
		Costs:    sim.DefaultCosts(),
		Schedule: sim.ScheduleDrizzle,
		Group:    100,
		Batches:  100,
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupSizeAblation(b *testing.B) {
	o := bench.DefaultGroupSweepOpts()
	o.Yahoo = benchYahoo()
	o.Groups = []int{1, 10}
	for i := 0; i < b.N; i++ {
		r, err := bench.GroupSweep(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Values["overhead/1"]*100, "overhead-%-g1")
		b.ReportMetric(r.Values["overhead/10"]*100, "overhead-%-g10")
	}
}

func BenchmarkTreeAggregation(b *testing.B) {
	o := benchYahoo()
	o.Stream.Batches = 20
	for i := 0; i < b.N; i++ {
		if _, err := bench.TreeAggregationAblation(o); err != nil {
			b.Fatal(err)
		}
	}
}
