// Package workload implements the paper's evaluation workloads:
//
//   - The Yahoo streaming benchmark (§5.3): JSON ad events filtered to
//     views, joined to their campaign, counted per campaign over 10-second
//     tumbling windows.
//   - The video-session analytics workload (§5.3, Figure 9): larger JSON
//     heartbeats with Zipf-skewed session keys.
//   - The cloud query-trace analysis behind Table 2 (§3.5): a synthetic SQL
//     corpus matching the reported aggregate distribution, classified by a
//     real parser.
//   - The sum-of-random-numbers microbenchmark used by the weak-scaling
//     experiments (§5.2).
//
// All generators are pure functions of (partition, time range, seed), the
// replayability contract recovery depends on, and every workload exposes
// both the micro-batch (dag.SourceFunc) and continuous (GenFunc) shapes so
// the same bytes flow through every engine under comparison.
package workload

import (
	"bytes"
	"fmt"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// YahooConfig parameterizes the ad-analytics benchmark.
type YahooConfig struct {
	// Campaigns is the number of ad campaigns (paper setup: 100).
	Campaigns int
	// AdsPerCampaign is the ads-per-campaign fan-in of the join (10).
	AdsPerCampaign int
	// EventsPerSecPerPartition is the generation rate of one source
	// partition.
	EventsPerSecPerPartition int
	// WindowSize is the tumbling window (paper: 10 s; scaled down in
	// laptop experiments).
	WindowSize time.Duration
	// Seed makes the event stream deterministic.
	Seed uint64
}

// DefaultYahooConfig mirrors the benchmark's published shape at laptop
// scale.
func DefaultYahooConfig() YahooConfig {
	return YahooConfig{
		Campaigns:                100,
		AdsPerCampaign:           10,
		EventsPerSecPerPartition: 10000,
		WindowSize:               time.Second,
		Seed:                     1,
	}
}

// Yahoo is an instance of the benchmark: the static ad→campaign table plus
// the deterministic event generator.
type Yahoo struct {
	cfg       YahooConfig
	adIDs     []string // adIDs[i] belongs to campaign i / AdsPerCampaign
	adToCamp  map[string]uint64
	campNames []string
	dict      *data.Dictionary
	eventMax  int // upper bound on the length of one rendered event
}

// NewYahoo builds the campaign/ad tables.
func NewYahoo(cfg YahooConfig) *Yahoo {
	if cfg.Campaigns <= 0 || cfg.AdsPerCampaign <= 0 {
		panic("workload: yahoo needs positive campaign/ad counts")
	}
	y := &Yahoo{
		cfg:      cfg,
		adToCamp: make(map[string]uint64),
		dict:     data.NewDictionary(),
	}
	longestAd := 0
	for c := 0; c < cfg.Campaigns; c++ {
		camp := fmt.Sprintf("campaign-%04d", c)
		campHash := y.dict.Add(camp)
		y.campNames = append(y.campNames, camp)
		for a := 0; a < cfg.AdsPerCampaign; a++ {
			ad := fmt.Sprintf("ad-%04d-%02d", c, a)
			y.adIDs = append(y.adIDs, ad)
			y.adToCamp[ad] = campHash
			longestAd = max(longestAd, len(ad))
		}
	}
	// What appendEvent renders at most: its literal text plus the widest
	// value of every variable field. Falling short costs a second arena,
	// which TestEventPathAllocations reports.
	y.eventMax = len(`{"user_id":"user-99999","page_id":"page-999","ad_id":"","ad_type":"banner","event_type":"purchase","event_time":,"ip_address":"10.255.255.1"}`) +
		longestAd + maxInt64Len
	return y
}

// Dictionary exposes the campaign-name dictionary for sinks.
func (y *Yahoo) Dictionary() *data.Dictionary { return y.dict }

// CampaignName resolves a campaign key hash.
func (y *Yahoo) CampaignName(h uint64) (string, bool) { return y.dict.Lookup(h) }

var eventTypes = [3]string{"view", "click", "purchase"}

// maxInt64Len is the length of the longest decimal int64.
const maxInt64Len = len("-9223372036854775808")

// mix is a splitmix64-style hash used to derive per-event attributes.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Gen produces the JSON ad events of one partition with event times in
// [from, to) — the continuous-engine GenFunc shape. Each record's Payload
// is the JSON document; Key/Val are unset until parsing.
//
// Every payload is a slice of one arena, capped at its own length so that an
// append copies instead of writing over the next event. Gen allocates the
// records and the arena and keeps neither: the caller owns them for as long
// as it likes. SourceFunc renders the same bytes into the task's scratch.
func (y *Yahoo) Gen(partition int, from, to int64) []data.Record {
	return y.gen(partition, from, to, nil)
}

// SourceFunc is Gen for the micro-batch engine: records and payloads are
// drawn from the task's scratch and valid until the task returns.
func (y *Yahoo) SourceFunc() dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		return y.gen(b.Partition, b.Start, b.End, b.Scratch)
	}
}

// gen renders the events of [from, to) into memory drawn from sc (nil
// allocates).
func (y *Yahoo) gen(partition int, from, to int64, sc *data.SourceScratch) []data.Record {
	if to <= from {
		return nil
	}
	span := to - from
	n := int(int64(y.cfg.EventsPerSecPerPartition) * span / int64(time.Second))
	recs := sc.Records(n)[:n]
	if n == 0 {
		return recs
	}
	arena := sc.Bytes(n * y.eventMax)
	salt := mix(uint64(partition) + y.cfg.Seed)
	ticks := newEventTicks(from, span, n)
	var clock eventClock
	for i := range recs {
		at := ticks.at
		ticks.next()
		h := mix(uint64(at) ^ salt)
		ad := y.adIDs[h%uint64(len(y.adIDs))]
		etype := eventTypes[(h>>32)%3]
		s := len(arena)
		arena = appendEvent(arena, &clock, h, ad, etype, at)
		recs[i] = data.Record{Time: at, Payload: arena[s:len(arena):len(arena)]}
	}
	return recs
}

// appendEvent renders the benchmark's JSON document onto dst. Hand-rolled to
// keep generation cheap relative to parsing (generation is the harness,
// parsing is the system under test): every number goes through render.go's
// digit tables, and literal text is appended in pieces of at most 16 bytes,
// which the compiler copies inline.
func appendEvent(dst []byte, clock *eventClock, h uint64, ad, etype string, at int64) []byte {
	dst = append(dst, `{"user_id":`...)
	dst = append(dst, `"user-`...)
	dst = appendUint(dst, h%100000)
	dst = append(dst, `","page_id":`...)
	dst = append(dst, `"page-`...)
	dst = appendSmall(dst, uint32((h>>16)%1000))
	dst = append(dst, `","ad_id":"`...)
	dst = append(dst, ad...)
	dst = append(dst, `","ad_type":"ban`...)
	dst = append(dst, `ner","event_type`...)
	dst = append(dst, `":"`...)
	dst = append(dst, etype...)
	dst = append(dst, `","event_time":`...)
	dst = clock.appendTime(dst, at)
	dst = append(dst, `,"ip_address":`...)
	dst = append(dst, `"10.`...)
	dst = appendSmall(dst, uint32((h>>40)&255))
	dst = append(dst, '.')
	dst = appendSmall(dst, uint32((h>>48)&255))
	dst = append(dst, `.1"}`...)
	return dst
}

// ParseFilterJoinOp returns the narrow-operator chain of the benchmark as a
// single fused op: parse JSON, keep views, project (ad, time), and join the
// ad to its campaign. The result records carry Key=campaign hash, Val=1 and
// the original event time, ready for windowed counting.
func (y *Yahoo) ParseFilterJoinOp() dag.NarrowOp {
	return func(in []data.Record) []data.Record {
		out := in[:0]
		for _, r := range in {
			ad, at, ok := parseViewEvent(r.Payload)
			if !ok {
				continue
			}
			camp, ok := y.adToCamp[string(ad)]
			if !ok {
				continue
			}
			out = append(out, data.Record{Key: camp, Val: 1, Time: at})
		}
		return out
	}
}

// viewType is the event_type token of a kept event, quotes included, as the
// walker compares it: an escaped spelling of "view" is not a view.
const viewType = `"view"`

// viewNeedle is the byte string every kept document contains. It is the
// token without its opening quote, so that bytes.Index, which anchors its
// search on the needle's first byte, stops at the few v's of an event and
// not at each of its quotes.
var viewNeedle = []byte(viewType[1:])

// parseViewEvent extracts ad_id and event_time from a view event, in any
// field order, and reports false for every other document. Two thirds of the
// stream are clicks and purchases, which one byte search drops before the
// walk: the walker keeps a document only if its event_type token is
// viewType, so a document without viewNeedle cannot be kept, and the filter
// changes no verdict.
func parseViewEvent(b []byte) (ad []byte, at int64, kept bool) {
	if !bytes.Contains(b, viewNeedle) {
		return nil, 0, false
	}
	return walkViewEvent(b)
}

// walkViewEvent is parseViewEvent without the filter. It gives up at the
// first field that disqualifies the document and otherwise validates it to
// its closing brace. A document that repeats one of the three fields is
// malformed.
func walkViewEvent(b []byte) (ad []byte, at int64, kept bool) {
	const (
		sawAd = 1 << iota
		sawType
		sawTime
	)
	if len(b) == 0 || b[0] != '{' {
		return nil, 0, false
	}
	seen := 0
	for i := 1; ; {
		key, val, end := nextField(b, i)
		if end < 0 {
			return nil, 0, false
		}
		bit, ok := 0, true
		switch string(key) {
		case "ad_id":
			bit = sawAd
			ad, ok = plainString(val)
		case "event_type":
			bit = sawType
			ok = string(val) == viewType
		case "event_time":
			bit = sawTime
			at, ok = parseInt(val)
		}
		if !ok || seen&bit != 0 {
			return nil, 0, false
		}
		seen |= bit
		if b[end] == '}' {
			if seen != sawAd|sawType|sawTime || end != len(b)-1 {
				return nil, 0, false
			}
			return ad, at, true
		}
		i = end + 1
	}
}

// WindowSize returns the configured tumbling window.
func (y *Yahoo) WindowSize() time.Duration { return y.cfg.WindowSize }

// ExpectedViewCounts computes the reference per-(window, campaign) counts
// for the records generated across the given partitions and time range, by
// running the same generator + operator chain sequentially.
func (y *Yahoo) ExpectedViewCounts(partitions int, from, to int64) map[[2]int64]int64 {
	op := y.ParseFilterJoinOp()
	win := dag.WindowSpec{Size: y.cfg.WindowSize}
	out := make(map[[2]int64]int64)
	for p := 0; p < partitions; p++ {
		for _, r := range op(y.Gen(p, from, to)) {
			out[[2]int64{win.Assign(r.Time), int64(r.Key)}] += r.Val
		}
	}
	return out
}
