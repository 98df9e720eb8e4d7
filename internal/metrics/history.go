package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// History is a fixed-depth time-series ring over a Registry. At every tick
// it snapshots each registered series into a per-series ring of the last N
// observations, giving consumers (the /timeseriesz endpoint, the driver's
// SLO watcher, chaos failure artifacts) a windowed view — rates, trends,
// sustained-threshold checks — that a point-in-time Snapshot cannot answer.
//
// Steady state allocates nothing: rings are fixed arrays reused in place,
// and per-series bookkeeping is created once when a series first appears.
// Series that vanish from the registry (eviction) age out of the History
// once their window has fully rotated past.
type History struct {
	reg *Registry

	mu     sync.Mutex
	ticks  int     // total snapshots taken
	times  []int64 // ring of tick timestamps (unix nanos)
	series map[string]*seriesRing

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// seriesRing holds one series' window. Exactly one of vals/stats is used,
// depending on the instrument kind.
type seriesRing struct {
	kind  string // "counter", "gauge", or "summary"
	since int    // tick at which the series first appeared
	last  int    // tick at which the series was last written
	vals  []float64
	stats []HistogramStats
}

// DefaultHistoryDepth is the ring depth of every History: at the driver's
// default 250ms telemetry interval it holds a little over half a minute of
// history.
const DefaultHistoryDepth = 128

// ClusterPrefix is prepended to the family name of every series the driver
// mirrors from worker heartbeats: cluster:drizzle_worker_queue_depth{...}.
// The prefix keeps merged series from colliding with locally incremented
// ones when the driver and workers share a registry (in-process tests, the
// chaos harness), and marks provenance for consumers like drizzle-top.
const ClusterPrefix = "cluster:"

// NewHistory returns a History over reg holding the last
// DefaultHistoryDepth ticks per series. It takes no snapshots until Tick or
// Start is called.
func NewHistory(reg *Registry) *History {
	return &History{
		reg:    reg,
		times:  make([]int64, DefaultHistoryDepth),
		series: make(map[string]*seriesRing),
		stop:   make(chan struct{}),
	}
}

// Start launches a goroutine that ticks every interval until Stop. Calling
// Start more than once is a no-op.
func (h *History) Start(interval time.Duration) {
	if h == nil || interval <= 0 {
		return
	}
	h.startOnce.Do(func() {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-h.stop:
					return
				case now := <-t.C:
					h.Tick(now)
				}
			}
		}()
	})
}

// Stop halts the self-snapshot goroutine (if Start was called) and waits
// for it to exit. The accumulated window remains readable.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.mu.Unlock()
	h.wg.Wait()
}

// Tick takes one snapshot of every registered series at the given time.
// Exposed so tests and deterministic harnesses (chaos) can drive the ring
// without wall-clock timers.
func (h *History) Tick(now time.Time) {
	if h == nil || h.reg == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	slot := h.ticks % DefaultHistoryDepth
	h.times[slot] = now.UnixNano()

	h.reg.mu.RLock()
	for k, c := range h.reg.counters {
		h.ringLocked(k, "counter").write(h.ticks, slot, float64(c.Value()))
	}
	for k, g := range h.reg.gauges {
		h.ringLocked(k, "gauge").write(h.ticks, slot, g.Value())
	}
	for k, hist := range h.reg.hists {
		h.statsRingLocked(k).writeStats(h.ticks, slot, hist.Stats())
	}
	for k, sm := range h.reg.summaries {
		h.statsRingLocked(k).writeStats(h.ticks, slot, sm.Stats())
	}
	h.reg.mu.RUnlock()

	h.ticks++
	// Drop series whose window has fully rotated past their last write —
	// without this, evicted workers' series would leak here instead of in
	// the registry.
	for k, sr := range h.series {
		if h.ticks-sr.last > DefaultHistoryDepth {
			delete(h.series, k)
		}
	}
}

func (h *History) ringLocked(key, kind string) *seriesRing {
	sr := h.series[key]
	if sr == nil || sr.kind != kind {
		sr = &seriesRing{kind: kind, since: h.ticks, vals: make([]float64, DefaultHistoryDepth)}
		h.series[key] = sr
	}
	return sr
}

func (h *History) statsRingLocked(key string) *seriesRing {
	sr := h.series[key]
	if sr == nil || sr.kind != "summary" {
		sr = &seriesRing{kind: "summary", since: h.ticks, stats: make([]HistogramStats, DefaultHistoryDepth)}
		h.series[key] = sr
	}
	return sr
}

func (sr *seriesRing) write(tick, slot int, v float64) {
	// A series can disappear and reappear (evict + re-register). Restart the
	// window after a gap rather than bridging it with stale slots.
	if tick > sr.since && tick-sr.last > 1 {
		sr.since = tick
	}
	sr.vals[slot] = v
	sr.last = tick
}

func (sr *seriesRing) writeStats(tick, slot int, s HistogramStats) {
	if tick > sr.since && tick-sr.last > 1 {
		sr.since = tick
	}
	sr.stats[slot] = s
	sr.last = tick
}

// window returns the valid tick range [lo, hi) for a series under h.mu.
func (h *History) windowLocked(sr *seriesRing) (lo, hi int) {
	hi = sr.last + 1
	lo = sr.since
	if m := hi - DefaultHistoryDepth; lo < m {
		lo = m
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// SeriesKeys returns the keys of tracked series belonging to one metric
// family, sorted — how the SLO watcher enumerates per-worker series (e.g.
// every cluster:drizzle_worker_queue_depth{worker=...}) without knowing the
// worker set.
func (h *History) SeriesKeys(family string) []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	var out []string
	for k := range h.series {
		if Family(k) == family {
			out = append(out, k)
		}
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// Point is one observation of a counter or gauge series.
type Point struct {
	UnixNanos int64   `json:"t"`
	Value     float64 `json:"v"`
}

// StatsPoint is one observation of a histogram/summary series.
type StatsPoint struct {
	UnixNanos int64 `json:"t"`
	HistogramStats
}

// Points returns the valid window of a counter/gauge series, oldest first
// (nil for unknown or digest-kind series).
func (h *History) Points(key string) []Point {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sr := h.series[key]
	if sr == nil || sr.vals == nil {
		return nil
	}
	lo, hi := h.windowLocked(sr)
	out := make([]Point, 0, hi-lo)
	for t := lo; t < hi; t++ {
		slot := t % DefaultHistoryDepth
		out = append(out, Point{UnixNanos: h.times[slot], Value: sr.vals[slot]})
	}
	return out
}

// StatsPoints returns the valid window of a histogram/summary series,
// oldest first.
func (h *History) StatsPoints(key string) []StatsPoint {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sr := h.series[key]
	if sr == nil || sr.stats == nil {
		return nil
	}
	lo, hi := h.windowLocked(sr)
	out := make([]StatsPoint, 0, hi-lo)
	for t := lo; t < hi; t++ {
		slot := t % DefaultHistoryDepth
		out = append(out, StatsPoint{UnixNanos: h.times[slot], HistogramStats: sr.stats[slot]})
	}
	return out
}

// Last returns the most recent value of a counter/gauge series.
func (h *History) Last(key string) (float64, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sr := h.series[key]
	if sr == nil || sr.vals == nil || sr.last < sr.since {
		return 0, false
	}
	return sr.vals[sr.last%DefaultHistoryDepth], true
}

// Rate returns the per-second increase of a counter series across its
// window (0 with fewer than two points or a non-positive time span). For
// gauges it is the net slope, which is occasionally useful too.
func (h *History) Rate(key string) float64 {
	pts := h.Points(key)
	if len(pts) < 2 {
		return 0
	}
	first, last := pts[0], pts[len(pts)-1]
	secs := float64(last.UnixNanos-first.UnixNanos) / float64(time.Second)
	if secs <= 0 {
		return 0
	}
	return (last.Value - first.Value) / secs
}

// Growing reports whether the last k points of a series are non-decreasing
// with a strict overall increase — the backlog watcher's "is it still
// getting worse" test. False when fewer than k points exist.
func (h *History) Growing(key string, k int) bool {
	pts := h.Points(key)
	if k < 2 {
		k = 2
	}
	if len(pts) < k {
		return false
	}
	pts = pts[len(pts)-k:]
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			return false
		}
	}
	return pts[len(pts)-1].Value > pts[0].Value
}

// SustainedAtLeast reports whether the last k points of a series all meet
// threshold — distinguishing a sustained condition from a one-tick spike.
// False when fewer than k points exist.
func (h *History) SustainedAtLeast(key string, k int, threshold float64) bool {
	pts := h.Points(key)
	if k < 1 {
		k = 1
	}
	if len(pts) < k {
		return false
	}
	for _, p := range pts[len(pts)-k:] {
		if p.Value < threshold {
			return false
		}
	}
	return true
}

// HistoryDump is the JSON shape served at /timeseriesz and written into
// chaos failure artifacts.
type HistoryDump struct {
	CapturedUnixNanos int64                   `json:"captured_unix_nanos"`
	Depth             int                     `json:"depth"`
	Ticks             int                     `json:"ticks"`
	Series            map[string]SeriesWindow `json:"series"`
}

// SeriesWindow is one series' window in a HistoryDump.
type SeriesWindow struct {
	Kind       string       `json:"kind"`
	Points     []Point      `json:"points,omitempty"`
	Stats      []StatsPoint `json:"stats,omitempty"`
	RatePerSec float64      `json:"rate_per_sec,omitempty"`
}

// Dump captures the full window of every series. Safe on a nil History
// (returns an empty dump) so endpoints can serve unconditionally.
func (h *History) Dump(now time.Time) HistoryDump {
	d := HistoryDump{CapturedUnixNanos: now.UnixNano(), Series: make(map[string]SeriesWindow)}
	if h == nil {
		return d
	}
	h.mu.Lock()
	keys := make([]string, 0, len(h.series))
	for k := range h.series {
		keys = append(keys, k)
	}
	d.Depth, d.Ticks = DefaultHistoryDepth, h.ticks
	h.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		h.mu.Lock()
		sr := h.series[k]
		h.mu.Unlock()
		if sr == nil {
			continue
		}
		w := SeriesWindow{Kind: sr.kind}
		if sr.vals != nil {
			w.Points = h.Points(k)
			if sr.kind == "counter" {
				w.RatePerSec = h.Rate(k)
			}
		} else {
			w.Stats = h.StatsPoints(k)
		}
		d.Series[k] = w
	}
	return d
}

// WriteJSON renders the dump as indented JSON.
func (d HistoryDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
