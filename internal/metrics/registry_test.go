package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestKeyCanonical(t *testing.T) {
	if got := Key("x_total"); got != "x_total" {
		t.Fatalf("unlabeled key = %q", got)
	}
	a := Key("x_total", "worker", "w1", "job", "yahoo")
	b := Key("x_total", "job", "yahoo", "worker", "w1")
	if a != b {
		t.Fatalf("label order changed key: %q vs %q", a, b)
	}
	if a != `x_total{job="yahoo",worker="w1"}` {
		t.Fatalf("unexpected canonical form %q", a)
	}
	// Odd trailing label key is ignored, not panicked on.
	if got := Key("x", "k"); got != "x" {
		t.Fatalf("odd labels: %q", got)
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total", "w", "1")
	c2 := r.Counter("a_total", "w", "1")
	if c1 != c2 {
		t.Fatal("same key produced distinct counters")
	}
	if r.Counter("a_total", "w", "2") == c1 {
		t.Fatal("distinct labels shared a counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same key produced distinct gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same key produced distinct histograms")
	}
}

func TestNilRegistryHandsOutLiveInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter from nil registry not usable")
	}
	r.Gauge("g").Set(3)
	r.Histogram("h").ObserveMillis(1)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// Half the goroutines collide on shared series, half mint
				// their own, so registration races lookup under -race.
				label := fmt.Sprintf("w%d", g%8)
				r.Counter("ops_total", "w", label).Inc()
				r.Gauge("level", "w", label).Set(float64(i))
				r.Histogram("lat_ms", "w", label).ObserveMillis(float64(i % 7))
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	var total int64
	for k, v := range s.Counters {
		if !strings.HasPrefix(k, "ops_total{") {
			t.Fatalf("unexpected series %q", k)
		}
		total += v
	}
	if total != 16*500 {
		t.Fatalf("lost increments: %d, want %d", total, 16*500)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("done_total")
	h := r.Histogram("lat_ms")
	g := r.Gauge("size")
	c.Add(5)
	h.ObserveMillis(10)
	g.Set(2)
	before := r.Snapshot()

	c.Add(3)
	h.ObserveMillis(20)
	h.ObserveMillis(40)
	g.Set(9)
	r.Counter("new_total").Inc() // series born between snapshots
	delta := r.Snapshot().Delta(before)

	if got := delta.CounterValue("done_total"); got != 3 {
		t.Fatalf("counter delta = %d, want 3", got)
	}
	if got := delta.CounterValue("new_total"); got != 1 {
		t.Fatalf("new-series delta = %d, want 1", got)
	}
	if got := delta.GaugeValue("size"); got != 9 {
		t.Fatalf("gauge delta keeps current value: got %v, want 9", got)
	}
	hs := delta.Histograms["lat_ms"]
	if hs.Count != 2 {
		t.Fatalf("histogram count delta = %d, want 2", hs.Count)
	}
	if hs.Sum != 60 {
		t.Fatalf("histogram sum delta = %v, want 60", hs.Sum)
	}
	if hs.Mean != 30 {
		t.Fatalf("histogram delta mean = %v, want 30", hs.Mean)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("drizzle_groups_total", "mode", "drizzle").Add(7)
	r.Counter("drizzle_groups_total", "mode", "bsp").Add(2)
	r.Gauge("drizzle_group_size").Set(10)
	h := r.Histogram("drizzle_task_run_ms")
	h.ObserveMillis(1)
	h.ObserveMillis(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE drizzle_groups_total counter",
		`drizzle_groups_total{mode="drizzle"} 7`,
		`drizzle_groups_total{mode="bsp"} 2`,
		"# TYPE drizzle_group_size gauge",
		"drizzle_group_size 10",
		"# TYPE drizzle_task_run_ms summary",
		`drizzle_task_run_ms{quantile="0.5"} 1`,
		`drizzle_task_run_ms{quantile="0.99"} 3`,
		"drizzle_task_run_ms_sum 4",
		"drizzle_task_run_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The TYPE header must appear once per family, not per series.
	if strings.Count(out, "# TYPE drizzle_groups_total counter") != 1 {
		t.Errorf("duplicate TYPE header:\n%s", out)
	}
}

func TestWritePrometheusLabeledSummary(t *testing.T) {
	r := NewRegistry()
	r.Histogram("run_ms", "w", "1").ObserveMillis(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`run_ms{w="1",quantile="0.5"} 5`,
		`run_ms_count{w="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled summary missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a_total": 1`) {
		t.Fatalf("JSON snapshot missing counter:\n%s", b.String())
	}
}

func TestHistogramEmptyQuantileDefined(t *testing.T) {
	h := NewHistogram()
	// Defined behavior for an empty histogram: every quantile is 0 and
	// QuantileOK reports !ok.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
		if v, ok := h.QuantileOK(q); ok || v != 0 {
			t.Fatalf("empty QuantileOK(%v) = (%v, %v), want (0, false)", q, v, ok)
		}
	}
	if h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram aggregates must be 0")
	}
	h.ObserveMillis(4)
	if v, ok := h.QuantileOK(0.5); !ok || v != 4 {
		t.Fatalf("QuantileOK after one sample = (%v, %v)", v, ok)
	}
}
