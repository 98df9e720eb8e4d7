// Integration test for the observability stack: a real streaming run on an
// in-process cluster with the obs HTTP server attached, asserting that the
// live endpoints serve the run's metrics and spans and that one
// micro-batch's full lifecycle — schedule, pre-schedule, fetch, execute,
// commit — comes out of the Chrome-trace export parented correctly.
package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/engine"
	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/rpc"
	"drizzle/internal/trace"
)

// integrationJob is a two-stage windowed count: 4 map partitions shuffling
// into 2 reduce partitions across 2 workers, so reduce tasks routinely
// fetch blocks from the remote worker and the task.fetch span is exercised
// over a real dependency wait.
func integrationJob(sink dag.SinkFunc) *dag.Job {
	src := func(b dag.BatchInfo) []data.Record {
		recs := make([]data.Record, 0, 20)
		span := b.End - b.Start
		for i := 0; i < 20; i++ {
			recs = append(recs, data.Record{
				Key:  uint64(i % 5),
				Val:  1,
				Time: b.Start + int64(i)*span/20,
			})
		}
		return recs
	}
	return &dag.Job{
		Name:     "obs-integration",
		Interval: 40 * time.Millisecond,
		Stages: []dag.Stage{
			{
				ID:            0,
				NumPartitions: 4,
				Source:        src,
				Shuffle:       &dag.ShuffleSpec{NumReducers: 2},
			},
			{
				ID:            1,
				NumPartitions: 2,
				Parents:       []int{0},
				Reduce:        dag.Sum,
				Window:        &dag.WindowSpec{Size: 80 * time.Millisecond},
				Sink:          sink,
			},
		},
	}
}

func healthGet(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /healthz: read body: %v", err)
	}
	return resp.StatusCode, strings.TrimSpace(string(body))
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return body
}

func TestObservabilityEndToEnd(t *testing.T) {
	registry := metrics.NewRegistry()
	tracer := trace.New("cluster", trace.DefaultCapacity)

	cfg := engine.DefaultConfig()
	cfg.GroupSize = 2
	cfg.CheckpointEvery = 1
	cfg.Metrics = registry
	cfg.Tracer = tracer
	cfg.Logger = obs.Discard()
	cfg.HeartbeatInterval = 20 * time.Millisecond

	net := rpc.NewInMemNetwork(rpc.InMemConfig{})
	defer net.Close()
	reg := engine.NewRegistry()
	if err := reg.Register("obs-integration", integrationJob(func(int64, int, []data.Record) {})); err != nil {
		t.Fatal(err)
	}
	driver := engine.NewDriver("driver", net, reg, cfg, nil)

	health := obs.NewHealth()
	srv, err := obs.Serve("127.0.0.1:0", obs.Options{
		Registry: registry, Tracer: tracer,
		History: driver.History(), Health: health,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Readiness: 503 while starting, 200 once serving, 503 draining.
	if code, body := healthGet(t, base); code != http.StatusServiceUnavailable || body != "starting" {
		t.Fatalf("/healthz before serving = %d %q", code, body)
	}

	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	defer driver.Stop()
	for _, id := range []rpc.NodeID{"w0", "w1"} {
		w := engine.NewWorker(id, "driver", net, reg, cfg)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		driver.AddWorker(id)
	}

	health.SetServing()
	if code, body := healthGet(t, base); code != http.StatusOK || body != "serving" {
		t.Fatalf("/healthz while serving = %d %q", code, body)
	}

	stats, err := driver.Run("obs-integration", 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 8 {
		t.Fatalf("expected 8 batches, ran %d", stats.Batches)
	}

	// Heartbeat-shipped telemetry: the driver mirrors worker series under the
	// cluster: prefix. Workers keep heartbeating after the run, so poll.
	mirrorKey := metrics.ClusterPrefix + metrics.Key("drizzle_worker_tasks_ok_total", "worker", "w0")
	deadline := time.Now().Add(3 * time.Second)
	for {
		var s metrics.Snapshot
		if err := json.Unmarshal(httpGet(t, base+"/metricsz"), &s); err != nil {
			t.Fatalf("/metricsz unparseable: %v", err)
		}
		if s.Counters[mirrorKey] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirrored series %q never appeared; counters: %v", mirrorKey, s.Counters)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /timeseriesz serves the driver's history ring with windows and rates.
	var dump metrics.HistoryDump
	if err := json.Unmarshal(httpGet(t, base+"/timeseriesz"), &dump); err != nil {
		t.Fatalf("/timeseriesz unparseable: %v", err)
	}
	if dump.Ticks == 0 || len(dump.Series) == 0 {
		t.Fatalf("/timeseriesz empty: ticks=%d series=%d", dump.Ticks, len(dump.Series))
	}
	if _, ok := dump.Series["drizzle_driver_batches_total"]; !ok {
		t.Errorf("/timeseriesz missing drizzle_driver_batches_total; have %d series", len(dump.Series))
	}

	health.SetDraining()
	if code, body := healthGet(t, base); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("/healthz draining = %d %q", code, body)
	}
	health.SetServing() // restore for the endpoint checks below

	// /metrics must expose the engine counters in Prometheus text form.
	prom := string(httpGet(t, base+"/metrics"))
	for _, want := range []string{
		"drizzle_driver_groups_total",
		"drizzle_driver_tasks_committed_total",
		"drizzle_driver_task_run_ms",
		`drizzle_worker_tasks_ok_total{worker="w0"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q\n%s", want, prom)
		}
	}

	// /metricsz is the same registry as a JSON snapshot.
	var snap metrics.Snapshot
	if err := json.Unmarshal(httpGet(t, base+"/metricsz"), &snap); err != nil {
		t.Fatalf("/metricsz unparseable: %v", err)
	}
	if got := snap.Counters["drizzle_driver_batches_total"]; got != 8 {
		t.Errorf("/metricsz drizzle_driver_batches_total = %d, want 8", got)
	}

	// /tracez serves the recent spans.
	var recent []trace.Span
	if err := json.Unmarshal(httpGet(t, base+"/tracez?n=10000"), &recent); err != nil {
		t.Fatalf("/tracez unparseable: %v", err)
	}
	if len(recent) == 0 {
		t.Fatal("/tracez returned no spans")
	}

	// The Chrome-trace export of the same ring must round-trip.
	spans := tracer.Snapshot()
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("chrome trace unparseable: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	verifyLifecycle(t, spans)
}

// verifyLifecycle asserts that at least one micro-batch's spans form the
// full parent chain: group -> group.schedule; task parented under the
// scheduling decision; pre-schedule, fetch and execute parented under the
// task; and the driver's commit parented under the task that reported it.
func verifyLifecycle(t *testing.T, spans []trace.Span) {
	t.Helper()
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	children := make(map[trace.SpanID]map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			if children[s.Parent] == nil {
				children[s.Parent] = make(map[string]int)
			}
			children[s.Parent][s.Name]++
		}
	}
	found := false
	for _, s := range spans {
		if s.Name != "task" || s.Stage != 1 {
			continue // want a reduce task: it has a fetch phase
		}
		sched, ok := byID[s.Parent]
		if !ok || sched.Name != "group.schedule" {
			continue
		}
		if group, ok := byID[sched.Parent]; !ok || group.Name != "group" {
			continue
		}
		kids := children[s.ID]
		if kids["task.preschedule"] >= 1 && kids["task.fetch"] >= 1 &&
			kids["task.execute"] >= 1 && kids["task.commit"] >= 1 {
			found = true
			break
		}
	}
	if !found {
		counts := make(map[string]int)
		for _, s := range spans {
			counts[s.Name]++
		}
		t.Fatalf("no reduce task with the full schedule->preschedule->fetch->execute->commit chain; span counts: %v", counts)
	}
}
