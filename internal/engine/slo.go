package engine

import (
	"log/slog"
	"sync"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
)

// SLOEventKind names one class of service-level condition the watcher
// detects. These are the Monitor-phase signals the scale policy (ROADMAP
// item 2) and fair-share scheduler (item 3) will subscribe to.
type SLOEventKind string

const (
	// SLOBacklogGrowing fires when the count of batches behind wall clock
	// is above the configured floor and has risen monotonically across the
	// sustain window — the cluster is not keeping up and not recovering.
	SLOBacklogGrowing SLOEventKind = "backlog_growing"
	// SLOLatencyBreach fires when per-batch latency sustains above
	// sloLatencyFactor times the job's window interval.
	SLOLatencyBreach SLOEventKind = "latency_slo_breach"
	// SLOWorkerSaturated fires when one worker's shipped queue depth
	// sustains at or above Config.sloQueueDepthMax.
	SLOWorkerSaturated SLOEventKind = "worker_saturated"
)

// SLOEvent is one detected condition.
type SLOEvent struct {
	Kind      SLOEventKind `json:"kind"`
	Worker    rpc.NodeID   `json:"worker,omitempty"` // worker_saturated only
	Value     float64      `json:"value"`
	Threshold float64      `json:"threshold"`
	At        time.Time    `json:"at"`
}

// Registry series the watcher reads and the driver's run loop writes.
const (
	backlogGaugeName = "drizzle_driver_slo_backlog_batches"
	latencyGaugeName = "drizzle_driver_batch_latency_ms"
	queueDepthName   = "drizzle_worker_queue_depth"
)

// sloWatcher evaluates backlog, latency and saturation conditions over the
// driver's time-series history. Detection reads the ring, never raw
// instruments, so every judgment is about sustained behavior rather than
// an instantaneous spike.
type sloWatcher struct {
	cfg  Config
	hist *metrics.History
	log  *slog.Logger

	breachCnt func(kind SLOEventKind) *metrics.Counter
	sustain   int           // sloSustainTicks
	cooldown  time.Duration // Config.sloCooldown

	mu       sync.Mutex
	interval time.Duration // job window interval; 0 until a run starts
	lastEmit map[string]time.Time
	events   []SLOEvent // bounded ring, newest last
}

const sloEventRing = 256

// sloLatencyFactor flags a latency_slo_breach when per-batch latency
// sustains above this multiple of the job's window interval.
const sloLatencyFactor = 2.0

// sloSustainTicks is how many consecutive history ticks a condition must
// hold before the watcher raises it — one-tick spikes are noise.
const sloSustainTicks = 3

func newSLOWatcher(cfg Config, reg *metrics.Registry, hist *metrics.History, logger *slog.Logger) *sloWatcher {
	return &sloWatcher{
		cfg:  cfg,
		hist: hist,
		log:  obs.Component(logger, "slo"),
		breachCnt: func(kind SLOEventKind) *metrics.Counter {
			return reg.Counter("drizzle_driver_slo_breaches_total", "kind", string(kind))
		},
		sustain:  sloSustainTicks,
		cooldown: cfg.sloCooldown(),
		lastEmit: make(map[string]time.Time),
	}
}

// setInterval installs the running job's window interval (the latency SLO
// baseline). Zero disables the latency check.
func (w *sloWatcher) setInterval(d time.Duration) {
	w.mu.Lock()
	w.interval = d
	w.mu.Unlock()
}

// evaluate runs every check once. Called from the driver's monitor tick.
func (w *sloWatcher) evaluate(now time.Time) {
	w.mu.Lock()
	interval := w.interval
	w.mu.Unlock()
	sustain := w.sustain
	minBacklog := float64(w.cfg.sloMinBacklog())

	if backlog, ok := w.hist.Last(backlogGaugeName); ok &&
		backlog >= minBacklog &&
		w.hist.Growing(backlogGaugeName, sustain+1) {
		w.emit(SLOEvent{
			Kind: SLOBacklogGrowing, Value: backlog,
			Threshold: minBacklog, At: now,
		})
	}

	if interval > 0 {
		limit := sloLatencyFactor * float64(interval) / float64(time.Millisecond)
		if w.hist.SustainedAtLeast(latencyGaugeName, sustain, limit) {
			v, _ := w.hist.Last(latencyGaugeName)
			w.emit(SLOEvent{Kind: SLOLatencyBreach, Value: v, Threshold: limit, At: now})
		}
	}

	depthMax := float64(w.cfg.sloQueueDepthMax())
	for _, key := range w.hist.SeriesKeys(metrics.ClusterPrefix + queueDepthName) {
		if !w.hist.SustainedAtLeast(key, sustain, depthMax) {
			continue
		}
		worker, _ := metrics.LabelValue(key, "worker")
		v, _ := w.hist.Last(key)
		w.emit(SLOEvent{
			Kind: SLOWorkerSaturated, Worker: rpc.NodeID(worker),
			Value: v, Threshold: depthMax, At: now,
		})
	}
}

// emit records an event unless the same kind (and worker) fired within the
// cooldown — sustained conditions re-fire at the cooldown period, not at
// every tick.
func (w *sloWatcher) emit(ev SLOEvent) {
	dedup := string(ev.Kind) + "/" + string(ev.Worker)
	w.mu.Lock()
	if last, ok := w.lastEmit[dedup]; ok && ev.At.Sub(last) < w.cooldown {
		w.mu.Unlock()
		return
	}
	w.lastEmit[dedup] = ev.At
	w.events = append(w.events, ev)
	if len(w.events) > sloEventRing {
		w.events = w.events[len(w.events)-sloEventRing:]
	}
	w.mu.Unlock()

	w.breachCnt(ev.Kind).Inc()
	w.log.Warn("slo event",
		"kind", string(ev.Kind), "worker", string(ev.Worker),
		"value", ev.Value, "threshold", ev.Threshold)
}

// Events returns a copy of the recorded event ring, oldest first.
func (w *sloWatcher) Events() []SLOEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]SLOEvent(nil), w.events...)
}
