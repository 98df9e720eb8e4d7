package engine

import (
	"testing"
	"time"

	"drizzle/internal/metrics"
)

func sloFixture(t *testing.T) (Config, *metrics.Registry, *metrics.History, *sloWatcher) {
	t.Helper()
	cfg := Config{SlotsPerWorker: 2, GroupSize: 2}.withDefaults()
	reg := metrics.NewRegistry()
	hist := metrics.NewHistory(reg)
	w := newSLOWatcher(cfg, reg, hist, nil)
	w.sustain = 3
	w.cooldown = time.Hour // one emission per kind unless the test says otherwise
	return cfg, reg, hist, w
}

func countKind(evs []SLOEvent, kind SLOEventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestSLOWatcherLatencyBreach(t *testing.T) {
	_, reg, hist, w := sloFixture(t)
	w.setInterval(100 * time.Millisecond) // SLO limit: 2x100ms = 200ms
	lat := reg.Gauge(latencyGaugeName)
	base := time.Unix(0, 0)

	// A single spike does not sustain.
	lat.Set(500)
	hist.Tick(base)
	lat.Set(50)
	for i := 1; i < w.sustain+1; i++ {
		hist.Tick(base.Add(time.Duration(i) * time.Second))
	}
	w.evaluate(base.Add(5 * time.Second))
	if n := countKind(w.Events(), SLOLatencyBreach); n != 0 {
		t.Fatalf("spike raised %d latency events", n)
	}

	// Sustained breach across the window does.
	lat.Set(450)
	for i := 0; i < w.sustain; i++ {
		hist.Tick(base.Add(time.Duration(10+i) * time.Second))
	}
	w.evaluate(base.Add(20 * time.Second))
	evs := w.Events()
	if n := countKind(evs, SLOLatencyBreach); n != 1 {
		t.Fatalf("sustained breach raised %d events, want 1", n)
	}
	ev := evs[len(evs)-1]
	if ev.Value != 450 || ev.Threshold != 200 {
		t.Fatalf("event = %+v", ev)
	}
	if got := reg.Snapshot().CounterValue("drizzle_driver_slo_breaches_total", "kind", string(SLOLatencyBreach)); got != 1 {
		t.Fatalf("breach counter = %d", got)
	}
	// Cooldown: still breaching, but within cooldown → no second event.
	w.evaluate(base.Add(21 * time.Second))
	if n := countKind(w.Events(), SLOLatencyBreach); n != 1 {
		t.Fatalf("cooldown ignored, %d events", n)
	}
}

func TestSLOWatcherBacklogGrowing(t *testing.T) {
	cfg, reg, hist, w := sloFixture(t)
	backlog := reg.Gauge(backlogGaugeName)
	base := time.Unix(0, 0)

	// Backlog large but flat: behind, not falling further behind.
	backlog.Set(float64(cfg.sloMinBacklog() + 3))
	for i := 0; i < w.sustain+2; i++ {
		hist.Tick(base.Add(time.Duration(i) * time.Second))
	}
	w.evaluate(base.Add(10 * time.Second))
	if n := countKind(w.Events(), SLOBacklogGrowing); n != 0 {
		t.Fatalf("flat backlog raised %d events", n)
	}

	// Monotone growth above the floor.
	for i := 0; i < w.sustain+1; i++ {
		backlog.Set(float64(cfg.sloMinBacklog() + 4 + i))
		hist.Tick(base.Add(time.Duration(20+i) * time.Second))
	}
	w.evaluate(base.Add(30 * time.Second))
	if n := countKind(w.Events(), SLOBacklogGrowing); n != 1 {
		t.Fatalf("growing backlog raised %d events, want 1", n)
	}

	// Growth entirely below the floor never fires.
	cfg2, reg2, hist2, w2 := sloFixture(t)
	b2 := reg2.Gauge(backlogGaugeName)
	for i := 0; i < w2.sustain+1; i++ {
		b2.Set(float64(i) * float64(cfg2.sloMinBacklog()-1) / float64(w2.sustain))
		hist2.Tick(base.Add(time.Duration(i) * time.Second))
	}
	w2.evaluate(base.Add(10 * time.Second))
	if n := countKind(w2.Events(), SLOBacklogGrowing); n != 0 {
		t.Fatalf("below-floor backlog raised %d events", n)
	}
}

func TestSLOWatcherWorkerSaturated(t *testing.T) {
	cfg, reg, hist, w := sloFixture(t)
	// Mirrored queue-depth series, as the heartbeat ingest would create them.
	hot := reg.Gauge(metrics.ClusterPrefix+queueDepthName, "worker", "w1")
	cold := reg.Gauge(metrics.ClusterPrefix+queueDepthName, "worker", "w0")
	base := time.Unix(0, 0)
	for i := 0; i < w.sustain+1; i++ {
		hot.Set(float64(cfg.sloQueueDepthMax() + 1))
		cold.Set(0)
		hist.Tick(base.Add(time.Duration(i) * time.Second))
	}
	w.evaluate(base.Add(10 * time.Second))
	evs := w.Events()
	if n := countKind(evs, SLOWorkerSaturated); n != 1 {
		t.Fatalf("saturation events = %d, want 1 (events %+v)", n, evs)
	}
	ev := evs[len(evs)-1]
	if ev.Worker != "w1" {
		t.Fatalf("saturated worker = %q, want w1", ev.Worker)
	}
}
