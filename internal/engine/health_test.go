package engine

import (
	"testing"
	"time"

	"drizzle/internal/rpc"
)

func healthTestConfig() Config {
	return DefaultConfig().withDefaults()
}

// feedFast gives every listed worker enough fast samples that the cluster
// median is established and dominated by healthy machines.
func feedFast(h *healthTracker, ids ...rpc.NodeID) {
	for _, id := range ids {
		for i := 0; i < healthMinSamples; i++ {
			h.ObserveSuccess(id, time.Millisecond)
		}
	}
}

func TestHealthBlacklistOnStrikes(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	now := time.Now()
	for i := 0; i < healthFailureThreshold; i++ {
		h.ObserveFailure("w0")
	}
	snap := h.Snapshot(now)
	if snap["w0"].State != WorkerBlacklisted {
		t.Fatalf("after %d failures state=%v, want blacklisted", healthFailureThreshold, snap["w0"].State)
	}
	w := h.Weights(now, []rpc.NodeID{"w0", "w1"})
	if w["w0"] != 0 {
		t.Errorf("blacklisted worker weight=%v, want 0", w["w0"])
	}
	if w["w1"] != weightHealthy {
		t.Errorf("healthy worker weight=%v, want %v", w["w1"], weightHealthy)
	}
}

func TestHealthDegradedNeedsTwoStrikes(t *testing.T) {
	t.Parallel()
	h := newHealthTracker(healthTestConfig())
	now := time.Now()
	h.ObserveStraggler("w0")
	if st := h.Snapshot(now)["w0"].State; st != WorkerHealthy {
		t.Fatalf("one straggler strike already reclassified the worker: %v", st)
	}
	h.ObserveStraggler("w0")
	if st := h.Snapshot(now)["w0"].State; st != WorkerDegraded {
		t.Fatalf("two strikes state=%v, want degraded", st)
	}
}

func TestHealthEWMABlacklistAndDegrade(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	now := time.Now()
	// Three fast workers anchor the cluster median at 1ms even once the
	// slow workers' own samples join the pool.
	feedFast(h, "w0", "w1", "w4")
	// w2's service time is 10x the median: past HealthBlacklistRatio (4).
	for i := 0; i < healthMinSamples; i++ {
		h.ObserveSuccess("w2", 10*time.Millisecond)
	}
	if st := h.Snapshot(now)["w2"].State; st != WorkerBlacklisted {
		t.Fatalf("10x-slow worker state=%v, want blacklisted", st)
	}
	// w3 is 3x the median: above ratio/2, below ratio — degraded.
	for i := 0; i < healthMinSamples; i++ {
		h.ObserveSuccess("w3", 3*time.Millisecond)
	}
	if st := h.Snapshot(now)["w3"].State; st != WorkerDegraded {
		t.Fatalf("3x-slow worker state=%v, want degraded", st)
	}
}

func TestHealthProbationReleaseAndRecovery(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	start := time.Now()
	for i := 0; i < healthFailureThreshold; i++ {
		h.ObserveFailure("w0")
	}
	if st := h.Snapshot(start)["w0"].State; st != WorkerBlacklisted {
		t.Fatalf("setup: state=%v, want blacklisted", st)
	}
	// Still inside probation: stays blacklisted.
	mid := start.Add(healthProbation / 2)
	if st := h.Snapshot(mid)["w0"].State; st != WorkerBlacklisted {
		t.Fatalf("inside probation state=%v, want blacklisted", st)
	}
	// Probation over: strikes wiped, but the worker re-enters at degraded
	// weight, not full weight.
	after := start.Add(healthProbation + time.Millisecond)
	snap := h.Snapshot(after)["w0"]
	if snap.State != WorkerDegraded {
		t.Fatalf("released worker state=%v, want degraded", snap.State)
	}
	if snap.Failures+snap.Stragglers != 0 {
		t.Fatalf("released worker kept strikes: %+v", snap)
	}
	// A streak of clean completions earns back full weight.
	for i := 0; i < healthForgiveStreak/2; i++ {
		h.ObserveSuccess("w0", time.Millisecond)
	}
	if st := h.Snapshot(after.Add(time.Millisecond))["w0"].State; st != WorkerHealthy {
		t.Fatalf("recovered worker state=%v, want healthy", st)
	}
}

func TestHealthForgivenessStreak(t *testing.T) {
	t.Parallel()
	h := newHealthTracker(healthTestConfig())
	now := time.Now()
	h.ObserveFailure("w0")
	h.ObserveStraggler("w0")
	if st := h.Snapshot(now)["w0"].State; st != WorkerDegraded {
		t.Fatalf("two strikes state=%v, want degraded", st)
	}
	for i := 0; i < healthForgiveStreak; i++ {
		h.ObserveSuccess("w0", time.Millisecond)
	}
	snap := h.Snapshot(now)["w0"]
	if snap.Failures+snap.Stragglers != 1 {
		t.Fatalf("one forgiveness streak should erase exactly one strike, have %d", snap.Failures+snap.Stragglers)
	}
	if snap.State != WorkerHealthy {
		t.Fatalf("one remaining strike state=%v, want healthy", snap.State)
	}
}

func TestHealthPickSpeculative(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	now := time.Now()
	live := []rpc.NodeID{"w0", "w1", "w2"}
	feedFast(h, "w0", "w1", "w2")
	for i := 0; i < healthFailureThreshold; i++ {
		h.ObserveFailure("w2")
	}
	// w0 is the straggler's host; w2 is blacklisted; w1 must be picked.
	if got := h.PickSpeculative(now, live, "w0"); got != "w1" {
		t.Errorf("PickSpeculative = %q, want w1", got)
	}
	// Only the avoided worker remains eligible: no target.
	for i := 0; i < healthFailureThreshold; i++ {
		h.ObserveFailure("w1")
	}
	if got := h.PickSpeculative(now, live, "w0"); got != "" {
		t.Errorf("PickSpeculative with no eligible target = %q, want empty", got)
	}
}

func TestHealthWeightsAllZeroFallsBackToUniform(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	now := time.Now()
	live := []rpc.NodeID{"w0", "w1"}
	for _, id := range live {
		for i := 0; i < healthFailureThreshold; i++ {
			h.ObserveFailure(id)
		}
	}
	w := h.Weights(now, live)
	for _, id := range live {
		if w[id] != weightHealthy {
			t.Errorf("all-blacklisted fallback weight[%s]=%v, want %v", id, w[id], weightHealthy)
		}
	}
}

func TestHealthRemoveForgets(t *testing.T) {
	t.Parallel()
	cfg := healthTestConfig()
	h := newHealthTracker(cfg)
	now := time.Now()
	for i := 0; i < healthFailureThreshold; i++ {
		h.ObserveFailure("w0")
	}
	h.Remove("w0")
	h.Ensure("w0")
	if st := h.Snapshot(now)["w0"].State; st != WorkerHealthy {
		t.Fatalf("re-added worker state=%v, want a fresh healthy ledger", st)
	}
}
