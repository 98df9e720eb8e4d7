package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"drizzle/internal/core"
	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

// checkClean runs a scenario and fails the test with the reproduction seed
// if any oracle invariant broke. The failing run's spans and metrics are
// dumped to a temp directory named in the failure message.
func checkClean(t *testing.T, sc Scenario) *Report {
	t.Helper()
	rep := Run(sc)
	t.Log(rep.Summary())
	if err := rep.Err(); err != nil {
		t.Errorf("reproduce with: CHAOS_SEED=%d go test -race -run %s ./internal/chaos\nartifacts: %s\n%v",
			sc.Seed, t.Name(), dumpArtifacts(t, rep), err)
	}
	return rep
}

// dumpArtifacts writes a failing report's trace + metrics to a temp dir
// (kept after the test: os.MkdirTemp, not t.TempDir, so the post-mortem
// record survives the run) and returns the directory for the failure
// message.
func dumpArtifacts(t *testing.T, rep *Report) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "chaos-seed-"+strconv.FormatInt(rep.Scenario.Seed, 10)+"-")
	if err != nil {
		return "(mkdtemp failed: " + err.Error() + ")"
	}
	if _, err := rep.WriteArtifacts(dir); err != nil {
		return dir + " (incomplete: " + err.Error() + ")"
	}
	return dir
}

// TestChaosBaseline sanity-checks the harness itself: with no faults the
// run must match the oracle and the sink must fill with windows.
func TestChaosBaseline(t *testing.T) {
	t.Parallel()
	rep := checkClean(t, Scenario{
		Name: "baseline", Seed: 1, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 12, GroupSize: 3,
	})
	if rep.Windows == 0 {
		t.Fatal("baseline run emitted no windows; harness is not exercising the job")
	}
	if rep.CheckpointPuts == 0 {
		t.Error("baseline run persisted no checkpoints")
	}
}

// TestWriteArtifacts checks the failing-seed dump: the trace ring and
// metrics snapshot land in the directory as parseable files with real
// content from the run.
func TestWriteArtifacts(t *testing.T) {
	t.Parallel()
	rep := checkClean(t, Scenario{
		Name: "artifacts", Seed: 11, Mode: engine.ModeDrizzle,
		Workers: 2, Batches: 8, GroupSize: 2,
	})
	dir := t.TempDir()
	paths, err := rep.WriteArtifacts(dir)
	if err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	if len(paths) != 4 {
		t.Fatalf("expected 4 artifacts, got %v", paths)
	}
	jf, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	spans, err := trace.ReadJSONL(jf)
	if err != nil {
		t.Fatalf("trace.jsonl unparseable: %v", err)
	}
	if len(spans) == 0 {
		t.Error("trace.jsonl is empty; the run recorded no spans")
	}
	cf, err := os.Open(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	ct, err := trace.ReadChromeTrace(cf)
	if err != nil {
		t.Fatalf("trace_chrome.json unparseable: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}
	mb, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics.json unparseable: %v", err)
	}
	if snap.Counters["drizzle_driver_groups_total"] == 0 {
		t.Errorf("metrics.json missing driver counters: %v", snap.Counters)
	}
	tb, err := os.ReadFile(paths[3])
	if err != nil {
		t.Fatal(err)
	}
	var dump metrics.HistoryDump
	if err := json.Unmarshal(tb, &dump); err != nil {
		t.Fatalf("timeseries.json unparseable: %v", err)
	}
	if dump.CapturedUnixNanos == 0 {
		t.Error("timeseries.json carries no capture timestamp")
	}
}

// TestChaosKillWorkerMidGroup kills a worker in the middle of a scheduling
// group: pre-scheduled tasks on the dead node, its map outputs, and its
// reduce state all have to be recovered (§3.3).
func TestChaosKillWorkerMidGroup(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "kill-mid-group", Seed: 2, Mode: engine.ModeDrizzle,
		Workers: 4, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 45 / 100, Kind: EventKillWorker, Node: "w1"},
	}
	rep := checkClean(t, sc)
	if len(rep.Killed) != 1 {
		t.Fatalf("expected 1 kill, got %v", rep.Killed)
	}
	if rep.Stats != nil && rep.Stats.Failures == 0 {
		t.Error("driver never detected the worker failure")
	}
}

// TestChaosPartitionDriverWorker partitions a worker from the driver (both
// directions, one at a time) during a pre-scheduled shuffle. The outbound
// block eats heartbeats until the driver declares the worker dead; the
// node keeps running as a zombie and its late un-partitioning must not
// corrupt results.
func TestChaosPartitionDriverWorker(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "partition-driver-worker", Seed: 3, Mode: engine.ModeDrizzle,
		Workers: 4, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 35 / 100, Kind: EventBlock, From: "w2", To: "driver"},
		{At: span*35/100 + 250*time.Millisecond, Kind: EventUnblock, From: "w2", To: "driver"},
	}
	rep := checkClean(t, sc)
	if rep.Faults.Blocked == 0 {
		t.Error("partition never intercepted a message (heartbeats flow every 20ms)")
	}
	if rep.Stats != nil && rep.Stats.Failures == 0 {
		t.Error("250ms heartbeat silence should exceed the 160ms timeout and trigger failure handling")
	}
}

// TestChaosShufflePlanePartition cuts both directions between two workers
// mid-run, so pre-scheduled DataReady notifications and shuffle fetches
// between them are lost until the link heals. Fetch timeouts and the stall
// safety net must repair the damage.
func TestChaosShufflePlanePartition(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "partition-shuffle-plane", Seed: 4, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
		MapParts: 6, ReduceParts: 3,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	at := span * 30 / 100
	sc.Events = []Event{
		{At: at, Kind: EventBlock, From: "w0", To: "w1"},
		{At: at, Kind: EventBlock, From: "w1", To: "w0"},
		{At: at + 200*time.Millisecond, Kind: EventUnblock, From: "w0", To: "w1"},
		{At: at + 200*time.Millisecond, Kind: EventUnblock, From: "w1", To: "w0"},
	}
	checkClean(t, sc)
}

// TestChaosDroppedTaskStatuses drops half of all TaskStatus reports to the
// driver until the run heals. Completion tracking must survive on the
// stall-resend safety net plus duplicate detection at the workers.
func TestChaosDroppedTaskStatuses(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "drop-task-status", Seed: 5, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 14, GroupSize: 4, Interval: 40 * time.Millisecond,
		Rules: []rpc.LinkFault{{
			To:    "driver",
			Match: func(m any) bool { _, ok := m.(core.TaskStatus); return ok },
			Drop:  0.5,
		}},
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{{At: span * 55 / 100, Kind: EventHealAll}}
	rep := checkClean(t, sc)
	if rep.Faults.Dropped == 0 {
		t.Error("no TaskStatus was ever dropped; the rule did not engage")
	}
}

// TestChaosDroppedRestores kills a worker while every RestoreState message
// is being dropped. Replayed tasks must hold at their MinState floor (a
// late or missing restore must never be papered over by folding batches
// into empty state) until the heal lets a group-boundary re-send deliver
// the snapshot.
func TestChaosDroppedRestores(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "drop-restores", Seed: 6, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
		MapParts: 6, ReduceParts: 6,
		Rules: []rpc.LinkFault{{
			Match: func(m any) bool { _, ok := m.(core.RestoreState); return ok },
			Drop:  1.0,
		}},
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 30 / 100, Kind: EventKillWorker, Node: "w0"},
		{At: span * 60 / 100, Kind: EventHealAll},
	}
	checkClean(t, sc)
}

// TestChaosSlowWorker slows one worker's task execution 8x mid-run with
// speculation enabled: the run must still match the sequential oracle (the
// idempotent sink and state-store dedup absorb duplicate completions from
// speculative copies), and the speculation ledger must balance — every
// launched copy either won or was written off, never both, never neither.
func TestChaosSlowWorker(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "slow-worker", Seed: 8, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
		TaskCost: 4 * time.Millisecond, Speculation: true,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 25 / 100, Kind: EventSlowWorker, Node: "w1", Factor: 8},
		{At: span * 80 / 100, Kind: EventHealAll},
	}
	rep := checkClean(t, sc)
	if rep.Faults.Slowed == 0 {
		t.Error("slow-worker fault never engaged; no task was stretched")
	}
	if rep.Stats != nil {
		st := rep.Stats
		if st.SpeculationLaunched != st.SpeculationWon+st.SpeculationWasted {
			t.Errorf("speculation ledger out of balance: launched=%d won=%d wasted=%d",
				st.SpeculationLaunched, st.SpeculationWon, st.SpeculationWasted)
		}
	}
}

// TestChaosBSPWithFaults exercises the BSP scheduler's per-stage barriers
// under kill plus moderate message loss.
func TestChaosBSPWithFaults(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "bsp-faults", Seed: 7, Mode: engine.ModeBSP,
		Workers: 4, Batches: 12, GroupSize: 1, Interval: 40 * time.Millisecond,
		Rules: []rpc.LinkFault{{Drop: 0.05}},
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 40 / 100, Kind: EventKillWorker, Node: "w3"},
		{At: span * 65 / 100, Kind: EventHealAll},
	}
	checkClean(t, sc)
}

// TestChaosDriverRestart crashes the driver mid-run: the incarnation is
// torn down and a fresh one rebuilt on the same WAL + checkpoint backend.
// The recovered driver must rediscover its workers (WAL membership plus
// worker re-registration — the harness adds none back), resume from the
// last committed group, and finish with windows identical to the
// sequential oracle. This is the in-process half of the crash-restart
// story; the TCP test covers the real-SIGKILL half.
func TestChaosDriverRestart(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "driver-restart", Seed: 9, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 16, GroupSize: 2, Interval: 40 * time.Millisecond,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 45 / 100, Kind: EventDriverRestart},
	}
	rep := checkClean(t, sc)
	if rep.DriverRestarts != 1 {
		t.Fatalf("expected 1 driver restart, got %d", rep.DriverRestarts)
	}
	if rep.CheckpointPuts == 0 {
		t.Error("restart run persisted no checkpoints; recovery never had state to resume from")
	}
}

// TestChaosDriverRestartAfterWorkerKill stacks the two recoveries: a worker
// dies, its state migrates, and then the driver itself crashes and restarts.
// The recovered driver's WAL membership still names the dead worker; it must
// re-detect the death (heartbeat silence) rather than wedge on it, and the
// oracle must still hold.
func TestChaosDriverRestartAfterWorkerKill(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "driver-restart-after-kill", Seed: 10, Mode: engine.ModeDrizzle,
		Workers: 4, Batches: 18, GroupSize: 3, Interval: 40 * time.Millisecond,
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 25 / 100, Kind: EventKillWorker, Node: "w2"},
		{At: span * 50 / 100, Kind: EventDriverRestart},
	}
	rep := checkClean(t, sc)
	if len(rep.Killed) != 1 || rep.DriverRestarts != 1 {
		t.Fatalf("faults did not all land: killed=%v restarts=%d", rep.Killed, rep.DriverRestarts)
	}
}

// TestChaosDriverRestartUnderLinkFaults runs the crash-restart with lossy,
// duplicating links active through the outage: re-registration messages and
// re-delivered restores are themselves subject to the chaos.
func TestChaosDriverRestartUnderLinkFaults(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "driver-restart-link-faults", Seed: 12, Mode: engine.ModeDrizzle,
		Workers: 3, Batches: 16, GroupSize: 2, Interval: 40 * time.Millisecond,
		Rules: []rpc.LinkFault{{Drop: 0.06}, {Duplicate: 0.15}},
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 40 / 100, Kind: EventDriverRestart},
		{At: span * 70 / 100, Kind: EventHealAll},
	}
	rep := checkClean(t, sc)
	if rep.DriverRestarts != 1 {
		t.Fatalf("expected 1 driver restart, got %d", rep.DriverRestarts)
	}
}

// TestChaosTelemetryConvergence is the telemetry-plane chaos oracle: with a
// worker kill plus heartbeats being dropped, duplicated, and re-ordered on
// their way to the driver, the heartbeat-shipped metric mirrors must still
// converge to every surviving worker's local values after the timeline heals
// (VerifyTelemetry). A duplicated heartbeat double-applied, a re-ordered one
// applied out of ratchet order, or a dropped final value never repaired by a
// periodic full ship would all surface as a permanent divergence — and the
// exactly-once oracle must stay green under the same faults.
func TestChaosTelemetryConvergence(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name: "telemetry-dup-reorder-kill", Seed: 13, Mode: engine.ModeDrizzle,
		Workers: 4, Batches: 16, GroupSize: 4, Interval: 40 * time.Millisecond,
		VerifyTelemetry: true,
		Rules: []rpc.LinkFault{{
			To:        "driver",
			Match:     func(m any) bool { _, ok := m.(core.Heartbeat); return ok },
			Drop:      0.2,
			Duplicate: 0.3,
			Reorder:   0.3,
		}},
	}
	span := time.Duration(sc.Batches) * sc.Interval
	sc.Events = []Event{
		{At: span * 35 / 100, Kind: EventKillWorker, Node: "w2"},
		{At: span * 70 / 100, Kind: EventHealAll},
	}
	rep := checkClean(t, sc)
	if rep.Faults.Dropped == 0 || rep.Faults.Duplicated == 0 || rep.Faults.Reordered == 0 {
		t.Errorf("heartbeat faults did not all engage: %+v", rep.Faults)
	}
	if len(rep.Killed) != 1 {
		t.Fatalf("expected 1 kill, got %v", rep.Killed)
	}
	// The run's history ring must have recorded the mirrored series.
	dump := rep.history.Dump(time.Now())
	found := false
	for k := range dump.Series {
		if strings.HasPrefix(k, metrics.ClusterPrefix) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("history recorded no mirrored cluster: series (%d series total)", len(dump.Series))
	}
}

// TestChaosRandomized is the main acceptance test: K randomized scenarios,
// each fully derived from a seed, validated against the sequential oracle.
// A failure prints the seed; CHAOS_SEED=<seed> re-runs exactly that
// scenario, and CHAOS_SCENARIOS=<n> overrides the count.
func TestChaosRandomized(t *testing.T) {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		rep := Run(RandomScenario(seed))
		t.Log(rep.Summary())
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return
	}
	count := 24
	if s := os.Getenv("CHAOS_SCENARIOS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SCENARIOS %q", s)
		}
		count = n
	}
	if testing.Short() {
		count = 6
	}
	const base = int64(20260806)
	for i := 0; i < count; i++ {
		seed := base + int64(i)*1000003
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep := Run(RandomScenario(seed))
			t.Log(rep.Summary())
			if err := rep.Err(); err != nil {
				t.Errorf("reproduce with: CHAOS_SEED=%d go test -race -run TestChaosRandomized ./internal/chaos\nartifacts: %s\n%v",
					seed, dumpArtifacts(t, rep), err)
			}
		})
	}
}

// TestChaosCodecEquivalence runs the same seeded scenarios once with
// messages passed by reference and once round-tripped through the wire
// codec, and demands the identical oracle verdict from both runs. This is
// the system-level half of the codec argument: the differential test proves
// value equality per message, this proves that serializing every message
// under a full faulty cluster changes nothing the oracle can observe.
func TestChaosCodecEquivalence(t *testing.T) {
	seeds := []int64{20260807, 21260810, 22260813}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			var verdicts [2]error
			for i, roundTrip := range []bool{false, true} {
				sc := RandomScenario(seed)
				sc.RoundTrip = roundTrip
				rep := Run(sc)
				t.Logf("round trip %v: %s", roundTrip, rep.Summary())
				verdicts[i] = rep.Err()
				if err := rep.Err(); err != nil {
					t.Errorf("round trip %v: seed %d\nartifacts: %s\n%v",
						roundTrip, seed, dumpArtifacts(t, rep), err)
				}
			}
			if (verdicts[0] == nil) != (verdicts[1] == nil) {
				t.Errorf("oracle verdicts diverge: by reference=%v round trip=%v",
					verdicts[0], verdicts[1])
			}
		})
	}
}

// TestRandomScenarioDeterministic pins the reproduction contract: the same
// seed must generate the identical scenario, and different seeds must not
// all collapse onto one shape.
func TestRandomScenarioDeterministic(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 42, 20260806} {
		a, b := RandomScenario(seed), RandomScenario(seed)
		// Rules carry no Match closures in generated scenarios, so
		// DeepEqual is exact.
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: scenario generation is not deterministic:\n%+v\nvs\n%+v", seed, a, b)
		}
	}
	distinct := make(map[string]bool)
	for seed := int64(0); seed < 50; seed++ {
		sc := RandomScenario(seed)
		distinct[fmt.Sprintf("%d/%d/%d/%v/%d", sc.Workers, sc.MapParts, sc.Batches, sc.Mode, len(sc.Events))] = true
	}
	if len(distinct) < 10 {
		t.Errorf("50 seeds produced only %d distinct shapes; generator is too narrow", len(distinct))
	}
}

// TestReportErrNamesSeed checks that a violation error carries the seed —
// the whole reproduction story hangs on it.
func TestReportErrNamesSeed(t *testing.T) {
	t.Parallel()
	rep := &Report{Scenario: Scenario{Seed: 987654, Name: "x"}}
	if rep.Err() != nil {
		t.Fatal("clean report must return nil error")
	}
	rep.violatef("window %d is wrong", 7)
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "987654") {
		t.Fatalf("violation error must name the seed, got: %v", err)
	}
}
