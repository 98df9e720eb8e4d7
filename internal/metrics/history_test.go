package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabelValue(t *testing.T) {
	key := Key("x_total", "worker", "w1", "mode", "drizzle")
	if v, ok := LabelValue(key, "worker"); !ok || v != "w1" {
		t.Fatalf("worker label = %q, %v", v, ok)
	}
	if v, ok := LabelValue(key, "mode"); !ok || v != "drizzle" {
		t.Fatalf("mode label = %q, %v", v, ok)
	}
	if _, ok := LabelValue(key, "absent"); ok {
		t.Fatal("absent label reported present")
	}
	if _, ok := LabelValue("bare_name", "worker"); ok {
		t.Fatal("unlabeled key reported a label")
	}
	if f := Family(key); f != "x_total" {
		t.Fatalf("Family = %q", f)
	}
}

func TestSummaryInstrument(t *testing.T) {
	r := NewRegistry()
	s := r.Summary("cluster:run_ms", "worker", "w0")
	s.Set(HistogramStats{Count: 4, Sum: 40, Mean: 10, P50: 9, P95: 20, P99: 21, Max: 22})
	if r.Summary("cluster:run_ms", "worker", "w0") != s {
		t.Fatal("summary not interned")
	}
	snap := r.Snapshot()
	got := snap.Histograms[Key("cluster:run_ms", "worker", "w0")]
	if got.Count != 4 || got.P95 != 20 {
		t.Fatalf("summary missing from snapshot histograms: %+v", got)
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cluster:run_ms{worker="w0",quantile="0.95"} 20`) {
		t.Fatalf("summary not rendered as prometheus summary:\n%s", b.String())
	}
}

func TestRegistryAtLookups(t *testing.T) {
	r := NewRegistry()
	k := Key("y_total", "worker", "w2")
	if r.CounterAt(k) != r.Counter("y_total", "worker", "w2") {
		t.Fatal("CounterAt and Counter disagree")
	}
	if r.GaugeAt(k) != r.Gauge("y_total", "worker", "w2") {
		t.Fatal("GaugeAt and Gauge disagree")
	}
	if r.SummaryAt(k) != r.Summary("y_total", "worker", "w2") {
		t.Fatal("SummaryAt and Summary disagree")
	}
	var nilReg *Registry
	nilReg.CounterAt(k).Inc()
	nilReg.SummaryAt(k).Set(HistogramStats{Count: 1})
}

func TestCounterStoreIdempotent(t *testing.T) {
	var c Counter
	c.Store(7)
	c.Store(7) // duplicate application must not double-count
	if c.Value() != 7 {
		t.Fatalf("value = %d, want 7", c.Value())
	}
	c.Store(5) // regression (reorder) is a plain set, caller gates on seq
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
}

func TestRegistryEvict(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "worker", "w0").Inc()
	r.Counter("a_total", "worker", "w1").Inc()
	r.Gauge("b", "worker", "w0").Set(1)
	r.Histogram("c_ms", "worker", "w0").ObserveMillis(1)
	r.Summary("d_ms", "worker", "w0").Set(HistogramStats{Count: 1})
	n := r.Evict(func(key string) bool {
		v, ok := LabelValue(key, "worker")
		return ok && v == "w0"
	})
	if n != 4 {
		t.Fatalf("evicted %d series, want 4", n)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.CounterValue("a_total", "worker", "w1") != 1 {
		t.Fatalf("surviving counters wrong: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("gauges/histograms survived eviction: %+v / %+v", snap.Gauges, snap.Histograms)
	}
}

func TestHistogramStatsMatchesQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.ObserveMillis(float64(i))
	}
	st := h.Stats()
	if st.Count != 100 || st.Sum != 5050 || st.Mean != 50.5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P50 != h.Quantile(0.50) || st.P95 != h.Quantile(0.95) || st.P99 != h.Quantile(0.99) || st.Max != 100 {
		t.Fatalf("stats quantiles disagree with Quantile: %+v", st)
	}
	if (HistogramStats{}) != (NewHistogram().Stats()) {
		t.Fatal("empty histogram stats not zero")
	}
}

func tickN(h *History, n int, start time.Time, step time.Duration) time.Time {
	for i := 0; i < n; i++ {
		h.Tick(start)
		start = start.Add(step)
	}
	return start
}

func TestHistoryWindowAndRate(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	c := r.Counter("ticks_total")
	g := r.Gauge("level")
	base := time.Unix(0, 0)
	const n = DefaultHistoryDepth + 6
	for i := 0; i < n; i++ {
		c.Add(2)
		g.Set(float64(i))
		h.Tick(base.Add(time.Duration(i) * time.Second))
	}
	pts := h.Points(Key("ticks_total"))
	if len(pts) != DefaultHistoryDepth {
		t.Fatalf("window holds %d points, want depth %d", len(pts), DefaultHistoryDepth)
	}
	if pts[0].Value != 2*(n-DefaultHistoryDepth+1) || pts[len(pts)-1].Value != 2*n {
		t.Fatalf("window ends = %v, %v", pts[0], pts[len(pts)-1])
	}
	// The window spans depth-1 seconds, in which the counter rose 2 per tick.
	if rate := h.Rate(Key("ticks_total")); rate != 2 {
		t.Fatalf("rate = %v, want 2", rate)
	}
	if last, ok := h.Last(Key("level")); !ok || last != n-1 {
		t.Fatalf("last gauge = %v, %v", last, ok)
	}
}

func TestHistoryGrowingAndSustained(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	g := r.Gauge("backlog")
	base := time.Unix(0, 0)
	for _, v := range []float64{1, 2, 3, 4} {
		g.Set(v)
		base = tickN(h, 1, base, time.Second)
	}
	key := Key("backlog")
	if !h.Growing(key, 3) {
		t.Fatal("monotone rise not reported growing")
	}
	if h.Growing(key, 5) {
		t.Fatal("growing with fewer points than k")
	}
	if !h.SustainedAtLeast(key, 3, 2) {
		t.Fatal("sustained threshold not reported")
	}
	if h.SustainedAtLeast(key, 4, 2) {
		t.Fatal("sustained ignores the below-threshold first point")
	}
	g.Set(2) // dip breaks monotonicity
	tickN(h, 1, base, time.Second)
	if h.Growing(key, 3) {
		t.Fatal("dip still reported growing")
	}
}

func TestHistorySummarySeriesAndDump(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	hist := r.Histogram("run_ms", "worker", "w0")
	r.Summary("cluster:run_ms", "worker", "w0").Set(HistogramStats{Count: 1, P95: 7})
	hist.ObserveMillis(5)
	h.Tick(time.Unix(1, 0))
	sp := h.StatsPoints(Key("run_ms", "worker", "w0"))
	if len(sp) != 1 || sp[0].Count != 1 || sp[0].P50 != 5 {
		t.Fatalf("stats points = %+v", sp)
	}
	d := h.Dump(time.Unix(2, 0))
	w, ok := d.Series[Key("cluster:run_ms", "worker", "w0")]
	if !ok || w.Kind != "summary" || len(w.Stats) != 1 || w.Stats[0].P95 != 7 {
		t.Fatalf("summary series dump = %+v (ok=%v)", w, ok)
	}
	var b bytes.Buffer
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back HistoryDump
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("dump JSON round-trip: %v", err)
	}
	if back.Depth != DefaultHistoryDepth || len(back.Series) != len(d.Series) {
		t.Fatalf("round-trip dump = depth %d, %d series", back.Depth, len(back.Series))
	}
	// Nil history serves an empty dump (endpoints run unconditionally).
	var nilHist *History
	if nd := nilHist.Dump(time.Unix(3, 0)); len(nd.Series) != 0 {
		t.Fatal("nil history dump not empty")
	}
}

func TestHistoryEvictedSeriesAgeOut(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	r.Counter("gone_total", "worker", "w9").Inc()
	base := tickN(h, 2, time.Unix(0, 0), time.Second)
	r.Evict(func(key string) bool { return strings.Contains(key, "w9") })
	key := Key("gone_total", "worker", "w9")
	if len(h.Points(key)) == 0 {
		t.Fatal("series should linger until the window rotates past")
	}
	tickN(h, DefaultHistoryDepth+1, base, time.Second)
	if pts := h.Points(key); len(pts) != 0 {
		t.Fatalf("evicted series still in history after rotation: %+v", pts)
	}
}

func TestHistoryStartStop(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	r.Gauge("g").Set(1)
	h.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(h.Points(Key("g"))) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	if len(h.Points(Key("g"))) < 2 {
		t.Fatal("self-snapshot goroutine never ticked")
	}
	h.Stop() // idempotent
}

func TestHistoryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := NewHistory(r)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Counter("c_total", "worker", "w0").Inc()
			r.Histogram("h_ms", "worker", "w0").ObserveMillis(float64(i % 50))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.Tick(time.Unix(int64(i), 0))
			h.Dump(time.Unix(int64(i), 1))
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
