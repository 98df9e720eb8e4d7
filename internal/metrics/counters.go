package metrics

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing thread-safe counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Store replaces the count wholesale. It exists for mirrored series — the
// driver's metric-shipping ingest sets a worker's cumulative value as
// shipped, making application idempotent under duplicated or re-ordered
// heartbeats. Locally incremented counters should never be Stored.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Gauge is a thread-safe instantaneous value (a level, not a count). The
// driver's worker-health tracker publishes one per worker so experiments
// and operators can watch health scores move as stragglers are detected.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// EWMA is an exponentially weighted moving average. The group-size tuner
// smooths scheduling-overhead measurements with one so that transient
// latency spikes (the paper cites GC pauses) do not cause oscillation.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weighs recent samples more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Update folds in a sample and returns the new average.
func (e *EWMA) Update(sample float64) float64 {
	if !e.init {
		e.value, e.init = sample, true
	} else {
		e.value = e.alpha*sample + (1-e.alpha)*e.value
	}
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }
