package engine

import (
	"sort"
	"sync"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
)

// WorkerState classifies a worker's health for placement decisions.
type WorkerState int

const (
	// WorkerHealthy gets full placement weight.
	WorkerHealthy WorkerState = iota
	// WorkerDegraded gets reduced weight: it keeps working but attracts
	// fewer partitions and is never chosen for speculative copies.
	WorkerDegraded
	// WorkerBlacklisted gets zero weight until probation expires.
	WorkerBlacklisted
)

// String implements fmt.Stringer.
func (s WorkerState) String() string {
	switch s {
	case WorkerHealthy:
		return "healthy"
	case WorkerDegraded:
		return "degraded"
	case WorkerBlacklisted:
		return "blacklisted"
	default:
		return "unknown"
	}
}

// Placement weight per health class. Quantized classes (rather than a
// continuous weight) limit placement churn: the weight map only changes on
// a state transition, and every change forces a membership broadcast plus
// state migration for moved partitions.
const (
	weightHealthy  = 1.0
	weightDegraded = 0.25
)

// healthEWMAAlpha smooths task service times; low enough that one spike
// does not reclassify a worker, high enough to track a genuine slowdown
// within a handful of tasks.
const healthEWMAAlpha = 0.25

// healthMinSamples is how many service-time samples a worker needs before
// its EWMA is compared against the cluster median.
const healthMinSamples = 4

// healthForgiveStreak is how many consecutive successes erase one strike,
// so a worker that recovers on its own walks back to Healthy.
const healthForgiveStreak = 8

// healthBlacklistRatio blacklists a worker whose service-time EWMA exceeds
// this multiple of the cluster median (with enough samples); half the
// ratio marks it degraded. Degraded workers get reduced placement weight,
// blacklisted ones get none.
const healthBlacklistRatio = 4.0

// healthFailureThreshold blacklists a worker after this many unforgiven
// failures/straggler flags.
const healthFailureThreshold = 3

// healthProbation is how long a blacklisted worker sits out before it is
// retried (degraded weight); if it misbehaves again it is re-blacklisted
// quickly.
const healthProbation = 2 * time.Second

// workerHealth is one worker's health ledger.
type workerHealth struct {
	ewma    *metrics.EWMA // service time, milliseconds
	samples int
	// failures and stragglers are "strikes"; their sum versus
	// healthFailureThreshold drives blacklisting. Successes slowly forgive
	// them (healthForgiveStreak).
	failures   int
	stragglers int
	streak     int
	state      WorkerState
	sickSince  time.Time // when the worker was blacklisted
	// probation holds a worker released from blacklist at degraded weight
	// until it proves itself with a streak of successes; without the hold a
	// strike-blacklisted worker (wiped strikes) would jump straight back to
	// full weight.
	probation  bool
	gauge      *metrics.Gauge
	stateGauge *metrics.Gauge
}

// WorkerHealthInfo is an externally visible snapshot of one worker's health.
type WorkerHealthInfo struct {
	State      WorkerState
	EWMAMillis float64
	Samples    int
	Failures   int
	Stragglers int
	Weight     float64
}

// healthTracker maintains per-worker health scores for the driver: an EWMA
// of task service time plus recent failure/straggler strikes (§3.4's
// adaptability story applied to degraded-but-alive machines). It answers
// two questions: what placement weight should each worker get, and which
// worker should host a speculative copy. All methods are safe for
// concurrent use; the driver calls them from its run loop and failure
// detector.
type healthTracker struct {
	mu      sync.Mutex
	cfg     Config
	workers map[rpc.NodeID]*workerHealth
}

func newHealthTracker(cfg Config) *healthTracker {
	return &healthTracker{cfg: cfg, workers: make(map[rpc.NodeID]*workerHealth)}
}

func (h *healthTracker) getLocked(id rpc.NodeID) *workerHealth {
	wh, ok := h.workers[id]
	if !ok {
		// The gauge lives in the shared registry (nil-safe) so operators can
		// watch drizzle_worker_health_score{worker=...} move as stragglers
		// are detected. A re-added worker reuses its series.
		wh = &workerHealth{
			ewma:  metrics.NewEWMA(healthEWMAAlpha),
			gauge: h.cfg.Metrics.Gauge("drizzle_worker_health_score", "worker", string(id)),
			// The weight class as a number (0 healthy / 1 degraded /
			// 2 blacklisted) so dashboards and drizzle-top get the
			// classification, not just the raw score.
			stateGauge: h.cfg.Metrics.Gauge("drizzle_worker_health_state", "worker", string(id)),
		}
		h.workers[id] = wh
	}
	return wh
}

// Ensure registers a worker so it participates in weight computation even
// before its first observation.
func (h *healthTracker) Ensure(id rpc.NodeID) {
	h.mu.Lock()
	h.getLocked(id)
	h.mu.Unlock()
}

// Remove drops a worker (declared dead); a re-added worker starts fresh.
func (h *healthTracker) Remove(id rpc.NodeID) {
	h.mu.Lock()
	delete(h.workers, id)
	h.mu.Unlock()
}

// ObserveSuccess folds in a completed task's service time.
func (h *healthTracker) ObserveSuccess(id rpc.NodeID, run time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh := h.getLocked(id)
	wh.ewma.Update(float64(run) / float64(time.Millisecond))
	wh.samples++
	wh.streak++
	if wh.streak >= healthForgiveStreak {
		wh.streak = 0
		if wh.stragglers > 0 {
			wh.stragglers--
		} else if wh.failures > 0 {
			wh.failures--
		}
	}
	wh.gauge.Set(wh.scoreLocked())
}

// ObserveFailure records a genuine task failure (not a retryable
// missing-precondition report).
func (h *healthTracker) ObserveFailure(id rpc.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh := h.getLocked(id)
	wh.failures++
	wh.streak = 0
	wh.gauge.Set(wh.scoreLocked())
}

// ObserveStraggler records that a task running on the worker was flagged as
// a straggler.
func (h *healthTracker) ObserveStraggler(id rpc.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wh := h.getLocked(id)
	wh.stragglers++
	wh.streak = 0
	wh.gauge.Set(wh.scoreLocked())
}

// scoreLocked is a single badness number for gauges and speculative-target
// ranking: smoothed service time in ms plus a large penalty per strike.
func (wh *workerHealth) scoreLocked() float64 {
	const strikePenalty = 1000 // ms-equivalent per strike
	return wh.ewma.Value() + float64(wh.failures+wh.stragglers)*strikePenalty
}

// reclassifyLocked recomputes every worker's state: probation expiry first,
// then strike- and EWMA-based transitions against the cluster median.
func (h *healthTracker) reclassifyLocked(now time.Time) {
	for _, wh := range h.workers {
		if wh.state == WorkerBlacklisted && now.Sub(wh.sickSince) >= healthProbation {
			// Probation over: wipe the strikes and retry the worker at
			// degraded weight. If it is still sick, strikes re-accumulate
			// and it is re-blacklisted within a few observations.
			wh.state = WorkerDegraded
			wh.failures, wh.stragglers, wh.streak = 0, 0, 0
			wh.probation = true
		}
	}
	var ewmas []float64
	for _, wh := range h.workers {
		if wh.samples >= healthMinSamples {
			ewmas = append(ewmas, wh.ewma.Value())
		}
	}
	var med float64
	if len(ewmas) > 0 {
		sort.Float64s(ewmas)
		med = ewmas[len(ewmas)/2]
	}
	for _, wh := range h.workers {
		strikes := wh.failures + wh.stragglers
		slowRatio := 0.0
		if med > 0 && wh.samples >= healthMinSamples {
			slowRatio = wh.ewma.Value() / med
		}
		switch {
		case strikes >= healthFailureThreshold ||
			slowRatio > healthBlacklistRatio:
			if wh.state != WorkerBlacklisted {
				wh.state = WorkerBlacklisted
				wh.sickSince = now
			}
			wh.probation = false
		case wh.state == WorkerBlacklisted:
			// Stays blacklisted until probation expires above.
		case strikes >= 2 || slowRatio > healthBlacklistRatio/2:
			// A single unforgiven strike does NOT change the weight class: a
			// task can be flagged as a straggler for transient reasons
			// (queueing behind a congested boundary), and every weight change
			// costs a membership epoch plus state migration. Two strikes, or
			// measured slowness, is deliberate damage control.
			wh.state = WorkerDegraded
		case wh.probation:
			// Recently released from blacklist: hold at degraded weight until
			// a streak of clean completions proves the machine recovered.
			if wh.streak >= healthForgiveStreak/2 {
				wh.probation = false
				wh.state = WorkerHealthy
			} else {
				wh.state = WorkerDegraded
			}
		default:
			wh.state = WorkerHealthy
		}
		wh.stateGauge.Set(float64(wh.state))
	}
}

// Weights returns placement weights for the given live workers after
// reclassifying. If every worker would get zero weight the map degrades to
// uniform (the placement constructor has the same guard; this keeps the
// driver's broadcast honest about what placement will actually do).
func (h *healthTracker) Weights(now time.Time, live []rpc.NodeID) map[rpc.NodeID]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reclassifyLocked(now)
	out := make(map[rpc.NodeID]float64, len(live))
	anyPositive := false
	for _, id := range live {
		w := weightHealthy
		if wh, ok := h.workers[id]; ok {
			switch wh.state {
			case WorkerDegraded:
				w = weightDegraded
			case WorkerBlacklisted:
				w = 0
			}
		}
		if w > 0 {
			anyPositive = true
		}
		out[id] = w
	}
	if !anyPositive {
		for id := range out {
			out[id] = weightHealthy
		}
	}
	return out
}

// PickSpeculative chooses the best worker to host a speculative copy: the
// lowest-scoring live worker that is not blacklisted and not the original
// assignee. Returns "" when no eligible worker exists.
func (h *healthTracker) PickSpeculative(now time.Time, live []rpc.NodeID, avoid rpc.NodeID) rpc.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reclassifyLocked(now)
	var (
		best      rpc.NodeID
		bestScore float64
	)
	for _, id := range live {
		if id == avoid {
			continue
		}
		score := 0.0
		if wh, ok := h.workers[id]; ok {
			if wh.state == WorkerBlacklisted {
				continue
			}
			score = wh.scoreLocked()
		}
		if best == "" || score < bestScore || (score == bestScore && id < best) {
			best, bestScore = id, score
		}
	}
	return best
}

// Snapshot returns the current health ledger (after reclassifying), for
// tests, experiments and operator visibility.
func (h *healthTracker) Snapshot(now time.Time) map[rpc.NodeID]WorkerHealthInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reclassifyLocked(now)
	out := make(map[rpc.NodeID]WorkerHealthInfo, len(h.workers))
	for id, wh := range h.workers {
		w := weightHealthy
		switch wh.state {
		case WorkerDegraded:
			w = weightDegraded
		case WorkerBlacklisted:
			w = 0
		}
		out[id] = WorkerHealthInfo{
			State:      wh.state,
			EWMAMillis: wh.ewma.Value(),
			Samples:    wh.samples,
			Failures:   wh.failures,
			Stragglers: wh.stragglers,
			Weight:     w,
		}
	}
	return out
}
