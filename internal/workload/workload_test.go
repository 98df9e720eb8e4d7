package workload

import (
	"encoding/json"

	"drizzle/internal/dag"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestYahooGenDeterministic(t *testing.T) {
	y := NewYahoo(DefaultYahooConfig())
	a := y.Gen(3, 1000000000, 1100000000)
	b := y.Gen(3, 1000000000, 1100000000)
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generator not deterministic")
	}
	c := y.Gen(4, 1000000000, 1100000000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("partitions generate identical streams")
	}
}

func TestYahooGenRate(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.EventsPerSecPerPartition = 5000
	y := NewYahoo(cfg)
	recs := y.Gen(0, 0, int64(200*time.Millisecond))
	if len(recs) != 1000 {
		t.Fatalf("generated %d events, want 1000", len(recs))
	}
	for _, r := range recs {
		if r.Time < 0 || r.Time >= int64(200*time.Millisecond) {
			t.Fatalf("event time %d outside the slice", r.Time)
		}
	}
}

// TestYahooEventsAreValidJSON cross-checks the hand-rolled marshaler and
// parser against encoding/json.
func TestYahooEventsAreValidJSON(t *testing.T) {
	y := NewYahoo(DefaultYahooConfig())
	recs := y.Gen(1, 0, int64(10*time.Millisecond))
	if len(recs) == 0 {
		t.Fatal("no events")
	}
	for _, r := range recs {
		var doc map[string]any
		if err := json.Unmarshal(r.Payload, &doc); err != nil {
			t.Fatalf("invalid JSON %q: %v", r.Payload, err)
		}
		ad, at, ok := parseViewEvent(r.Payload)
		if view := doc["event_type"].(string) == "view"; ok != view {
			t.Fatalf("custom parser kept=%v, event_type is %q: %q", ok, doc["event_type"], r.Payload)
		}
		if !ok {
			continue
		}
		if string(ad) != doc["ad_id"].(string) {
			t.Fatalf("parser mismatch on %q", r.Payload)
		}
		if at != r.Time {
			t.Fatalf("event_time mismatch on %q", r.Payload)
		}
	}
}

func TestYahooParseFilterJoin(t *testing.T) {
	y := NewYahoo(DefaultYahooConfig())
	recs := y.Gen(0, 0, int64(50*time.Millisecond))
	parsed := y.ParseFilterJoinOp()(recs)
	if len(parsed) == 0 {
		t.Fatal("all events filtered out")
	}
	// Roughly 1/3 of events are views.
	ratio := float64(len(parsed)) / float64(500)
	if ratio < 0.2 || ratio > 0.5 {
		t.Fatalf("view ratio %.2f implausible", ratio)
	}
	for _, r := range parsed {
		if _, ok := y.CampaignName(r.Key); !ok {
			t.Fatalf("joined key %d is not a campaign", r.Key)
		}
		if r.Val != 1 {
			t.Fatalf("parsed record Val = %d", r.Val)
		}
	}
}

func TestParseViewEventRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not json"),
		[]byte(`{"ad_id":"x"`),
		[]byte(`{"ad_id":"x","event_type":"view"}`), // missing event_time
		[]byte(`{"event_time":abc,"ad_id":"x","event_type":"view"}`),
	}
	for _, b := range bad {
		if _, _, ok := parseViewEvent(b); ok {
			t.Errorf("parser accepted %q", b)
		}
	}
}

func TestParseViewEventFieldOrder(t *testing.T) {
	doc := []byte(`{"event_time":42,"event_type":"view","ad_id":"ad-1"}`)
	ad, at, ok := parseViewEvent(doc)
	if !ok || string(ad) != "ad-1" || at != 42 {
		t.Fatalf("order-independent parse failed: ad=%q at=%d ok=%v", ad, at, ok)
	}
}

func TestYahooExpectedViewCounts(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.WindowSize = 100 * time.Millisecond
	y := NewYahoo(cfg)
	counts := y.ExpectedViewCounts(2, 0, int64(300*time.Millisecond))
	if len(counts) == 0 {
		t.Fatal("no expected counts")
	}
	var total int64
	for k, v := range counts {
		if k[0]%int64(cfg.WindowSize) != 0 {
			t.Fatalf("window start %d misaligned", k[0])
		}
		total += v
	}
	// Total views should be ~1/3 of all events (2 partitions x 3000).
	if total < 1200 || total > 4000 {
		t.Fatalf("total views %d implausible", total)
	}
}

func TestVideoGenDeterministicAndSkewed(t *testing.T) {
	v := NewVideo(DefaultVideoConfig())
	a := v.Gen(0, 0, int64(100*time.Millisecond))
	b := v.Gen(0, 0, int64(100*time.Millisecond))
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatal("video generator not deterministic")
	}
	share := v.HotSessionShare(20000)
	// Zipf(1.2) over 200 sessions gives the hottest one a large share.
	if share < 0.05 {
		t.Fatalf("hot session share %.3f shows no skew", share)
	}
	uniform := 1.0 / 200
	if share < uniform*5 {
		t.Fatalf("skew %.3f barely above uniform %.3f", share, uniform)
	}
}

func TestVideoHeartbeatsParse(t *testing.T) {
	v := NewVideo(DefaultVideoConfig())
	recs := v.Gen(2, 0, int64(20*time.Millisecond))
	hbSize := len(recs[0].Payload)
	out := v.ParseOp()(recs)
	if len(out) != len(recs) {
		t.Fatalf("parsed %d of %d heartbeats", len(out), len(recs))
	}
	for _, r := range out {
		if _, ok := v.Dictionary().Lookup(r.Key); !ok {
			t.Fatalf("unknown session key %d", r.Key)
		}
	}
	// Heartbeats must be meaningfully larger than ad events.
	y := NewYahoo(DefaultYahooConfig())
	ad := y.Gen(0, 0, int64(time.Millisecond))
	if hbSize <= len(ad[0].Payload) {
		t.Fatalf("heartbeat (%dB) not larger than ad event (%dB)", hbSize, len(ad[0].Payload))
	}
	var doc map[string]any
	if err := json.Unmarshal(v.Gen(2, 0, int64(time.Millisecond))[0].Payload, &doc); err != nil {
		t.Fatalf("heartbeat not valid JSON: %v", err)
	}
}

func TestVideoZipfCDFMonotone(t *testing.T) {
	v := NewVideo(DefaultVideoConfig())
	for i := 1; i < len(v.cdf); i++ {
		if v.cdf[i] < v.cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if v.cdf[len(v.cdf)-1] != 1<<32 {
		t.Fatal("CDF does not end at 1")
	}
}

// TestVideoSampleSessionQuick property-tests the CDF sampler range.
func TestVideoSampleSessionQuick(t *testing.T) {
	v := NewVideo(DefaultVideoConfig())
	f := func(u uint64) bool {
		s := v.sampleSession(u)
		return s >= 0 && s < 200
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCorpusDistribution(t *testing.T) {
	corpus := QueryCorpus(200000, 9)
	qa := AnalyzeQueries(corpus)
	if qa.Total != 200000 {
		t.Fatalf("Total = %d", qa.Total)
	}
	aggShare := float64(qa.WithAggregates) / float64(qa.Total)
	if math.Abs(aggShare-aggregationQueryShare) > 0.02 {
		t.Fatalf("aggregation share %.3f, want ~%.2f", aggShare, aggregationQueryShare)
	}
	shares := qa.ClassShares()
	for cls, want := range paperTable2 {
		got := shares[cls]
		if math.Abs(got-want) > 2.0 {
			t.Fatalf("%s share %.1f%%, paper reports %.1f%%", cls, got, want)
		}
	}
	// The paper's headline: >95% of aggregation queries use only
	// partial-merge aggregates.
	if qa.PartialMergeShare < 0.95 {
		t.Fatalf("partial-merge share %.3f, want > 0.95", qa.PartialMergeShare)
	}
}

func TestClassifyQuery(t *testing.T) {
	cases := []struct {
		q    string
		want []AggClass
	}{
		{"SELECT COUNT(*) FROM t", []AggClass{AggCount}},
		{"SELECT count (x) FROM t", []AggClass{AggCount}},
		{"SELECT SUM(a), MAX(b) FROM t", []AggClass{AggSumMinMax, AggSumMinMax}},
		{"SELECT FIRST(a) FROM t", []AggClass{AggFirstLast}},
		{"SELECT my_udaf_v1(a) FROM t", []AggClass{AggUDF}},
		{"SELECT MEDIAN(a) FROM t", []AggClass{AggOther}},
		{"SELECT a FROM t WHERE b > 1", nil},
		{"SELECT counter FROM t", nil},  // not a call
		{"SELECT * FROM counts", nil},   // substring of COUNT
		{"SELECT lower(a) FROM t", nil}, // non-aggregate function
		{"SELECT AVG(x) FROM t", []AggClass{AggSumMinMax}},
	}
	for _, c := range cases {
		if got := ClassifyQuery(c.q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ClassifyQuery(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTable2RowsFormat(t *testing.T) {
	qa := AnalyzeQueries(QueryCorpus(10000, 1))
	rows := qa.Table2Rows()
	if len(rows) != 5 {
		t.Fatalf("Table2Rows returned %d rows", len(rows))
	}
	if len(PaperTable2()) != 5 {
		t.Fatal("PaperTable2 rows wrong")
	}
}

func TestSumRandomDeterministic(t *testing.T) {
	if SumRandom(1000, 42) != SumRandom(1000, 42) {
		t.Fatal("SumRandom not deterministic")
	}
	if SumRandom(1000, 42) == SumRandom(1000, 43) {
		t.Fatal("SumRandom ignores seed")
	}
	if SumRandom(0, 1) != 0 {
		t.Fatal("SumRandom(0) != 0")
	}
}

func TestSumSourceFunc(t *testing.T) {
	src := SumSourceFunc(SumConfig{NumbersPerTask: 100, Seed: 5})
	recs := src(dagBatch(3, 1))
	if len(recs) != 1 || recs[0].Key != 1 {
		t.Fatalf("sum source output wrong: %v", recs)
	}
	again := src(dagBatch(3, 1))
	if recs[0].Val != again[0].Val {
		t.Fatal("sum source not replayable")
	}
}

func TestYahooPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewYahoo accepted zero campaigns")
		}
	}()
	NewYahoo(YahooConfig{})
}

func TestVideoPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVideo accepted zero sessions")
		}
	}()
	NewVideo(VideoConfig{})
}

// dagBatch is a small helper constructing a BatchInfo for tests.
func dagBatch(batch int64, partition int) dag.BatchInfo {
	return dag.BatchInfo{Batch: batch, Partition: partition, Start: 0, End: int64(time.Millisecond)}
}
