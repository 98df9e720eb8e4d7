package workload

import (
	"math"
	"strconv"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// VideoConfig parameterizes the video-session analytics workload: client
// heartbeats grouped by session into session summaries (§2.1's case study,
// evaluated in Figure 9). Relative to the Yahoo benchmark the heartbeats
// are larger and the key distribution is skewed, which is why the paper
// observes a heavier tail.
type VideoConfig struct {
	// Sessions is the number of concurrent viewer sessions.
	Sessions int
	// EventsPerSecPerPartition is the heartbeat rate per source partition.
	EventsPerSecPerPartition int
	// ZipfS is the skew exponent (>1); larger = more skew toward a few hot
	// sessions.
	ZipfS float64
	// WindowSize is the session-summary update window.
	WindowSize time.Duration
	// Seed makes the stream deterministic.
	Seed uint64
}

// DefaultVideoConfig mirrors the paper's description at laptop scale.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{
		Sessions:                 200,
		EventsPerSecPerPartition: 6000,
		ZipfS:                    1.2,
		WindowSize:               time.Second,
		Seed:                     7,
	}
}

// Video is an instance of the workload with a precomputed Zipf CDF.
type Video struct {
	cfg  VideoConfig
	keys []uint64 // session key hashes
	cdf  []uint64 // scaled cumulative distribution over sessions
	// guide[b] is the first session whose cdf value reaches b<<16, for b =
	// 0 … 1<<16: a draw in [b<<16, (b+1)<<16) lands in guide[b] …
	// guide[b+1].
	guide        []uint32
	dict         *data.Dictionary
	padding      string
	heartbeatMax int // upper bound on the length of one rendered heartbeat
}

// NewVideo precomputes session keys and the Zipf sampling table.
func NewVideo(cfg VideoConfig) *Video {
	if cfg.Sessions <= 0 || uint64(cfg.Sessions) > math.MaxUint32 {
		panic("workload: video needs a positive session count below 1<<32")
	}
	v := &Video{cfg: cfg, dict: data.NewDictionary()}
	weights := make([]float64, cfg.Sessions)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		total += weights[i]
	}
	v.keys = make([]uint64, cfg.Sessions)
	v.cdf = make([]uint64, cfg.Sessions)
	var acc float64
	for i := range weights {
		name := "session-" + strconv.Itoa(i)
		v.keys[i] = v.dict.Add(name)
		acc += weights[i]
		v.cdf[i] = uint64(acc / total * float64(1<<32))
	}
	v.cdf[cfg.Sessions-1] = 1 << 32 // guard against rounding
	// One pass over buckets and CDF together; the last bucket edge is 1<<32,
	// which cdf[Sessions-1] reaches.
	v.guide = make([]uint32, 1<<16+1)
	s := 0
	for b := range v.guide {
		for v.cdf[s] < uint64(b)<<16 {
			s++
		}
		v.guide[b] = uint32(s)
	}
	// Heartbeats carry client metadata; pad the document so records are
	// several times larger than ad events, as in the paper's comparison.
	v.padding = `"player":"html5-v3.2.1","cdn":"edge-cache-west-2a","os":"android-14","app_version":"tv-9.4.133","device":"smarttv-2021-qled","network":"wifi-5ghz","drm":"widevine-l1","buffer_ratio":0.0132,"dropped_frames":3,"bandwidth_est_kbps":18250,"geo":"us-west-2"`
	// What appendHeartbeat renders at most: its literal text plus the widest
	// value of every variable field.
	v.heartbeatMax = len(`{"session_id":"session-","event":"bitrate_change","bitrate_kbps":4399,"ts":,}`) +
		len(strconv.Itoa(cfg.Sessions-1)) + maxInt64Len + len(v.padding)
	return v
}

// sampleSession maps the low 32 bits of a draw to a session index: the first
// whose CDF value reaches them. The guide narrows the binary search to the
// draw's bucket of 1<<16 values.
func (v *Video) sampleSession(u uint64) int {
	u &= (1 << 32) - 1
	lo, hi := int(v.guide[u>>16]), int(v.guide[u>>16+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if v.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Dictionary exposes session names for sinks.
func (v *Video) Dictionary() *data.Dictionary { return v.dict }

// WindowSize returns the session-summary window.
func (v *Video) WindowSize() time.Duration { return v.cfg.WindowSize }

var heartbeatEvents = [4]string{"play", "buffer", "bitrate_change", "pause"}

// Gen produces heartbeat documents for one partition in [from, to). As in
// Yahoo.Gen, the payloads of one call share one arena, each capped at its own
// length, and the caller owns records and arena for as long as it likes.
func (v *Video) Gen(partition int, from, to int64) []data.Record {
	return v.gen(partition, from, to, nil)
}

// SourceFunc is Gen for the micro-batch engine: records and payloads are
// drawn from the task's scratch and valid until the task returns.
func (v *Video) SourceFunc() dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		return v.gen(b.Partition, b.Start, b.End, b.Scratch)
	}
}

// gen renders the heartbeats of [from, to) into memory drawn from sc (nil
// allocates).
func (v *Video) gen(partition int, from, to int64, sc *data.SourceScratch) []data.Record {
	if to <= from {
		return nil
	}
	span := to - from
	n := int(int64(v.cfg.EventsPerSecPerPartition) * span / int64(time.Second))
	recs := sc.Records(n)[:n]
	if n == 0 {
		return recs
	}
	arena := sc.Bytes(n * v.heartbeatMax)
	salt := mix(uint64(partition)*31 + v.cfg.Seed)
	ticks := newEventTicks(from, span, n)
	var clock eventClock
	for i := range recs {
		at := ticks.at
		ticks.next()
		h := mix(uint64(at) ^ salt)
		sess := v.sampleSession(h)
		ev := heartbeatEvents[(h>>33)%4]
		bitrate := 400 + (h>>35)%4000
		s := len(arena)
		arena = v.appendHeartbeat(arena, &clock, sess, ev, bitrate, at)
		recs[i] = data.Record{Time: at, Payload: arena[s:len(arena):len(arena)]}
	}
	return recs
}

// appendHeartbeat renders one heartbeat onto dst: numbers through
// render.go's digit tables, literal text in pieces of at most 16 bytes.
func (v *Video) appendHeartbeat(dst []byte, clock *eventClock, session int, event string, bitrate uint64, at int64) []byte {
	dst = append(dst, `{"session_id":"`...)
	dst = append(dst, `session-`...)
	dst = appendUint(dst, uint64(session))
	dst = append(dst, `","event":"`...)
	dst = append(dst, event...)
	dst = append(dst, `","bitrate_kbps`...)
	dst = append(dst, `":`...)
	dst = appendSmall(dst, uint32(bitrate))
	dst = append(dst, `,"ts":`...)
	dst = clock.appendTime(dst, at)
	dst = append(dst, ',')
	dst = append(dst, v.padding...)
	dst = append(dst, '}')
	return dst
}

// ParseOp parses heartbeats into session-keyed records (Key = session hash,
// Val = 1, Time = heartbeat timestamp) for windowed session summaries.
func (v *Video) ParseOp() dag.NarrowOp {
	return func(in []data.Record) []data.Record {
		out := in[:0]
		for _, r := range in {
			sess, ts, ok := parseHeartbeat(r.Payload)
			if !ok {
				continue
			}
			out = append(out, data.Record{Key: data.HashBytes(sess), Val: 1, Time: ts})
		}
		return out
	}
}

// parseHeartbeat extracts session_id and ts, in either order, and reads no
// further than the later of the two: the client metadata behind them is
// never scanned. The first occurrence of a field counts.
func parseHeartbeat(b []byte) (sess []byte, ts int64, valid bool) {
	const (
		sawSession = 1 << iota
		sawTS
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
		ok := true
		switch {
		case string(key) == "session_id" && seen&sawSession == 0:
			seen |= sawSession
			sess, ok = plainString(val)
		case string(key) == "ts" && seen&sawTS == 0:
			seen |= sawTS
			ts, ok = parseInt(val)
		}
		if !ok {
			return nil, 0, false
		}
		if seen == sawSession|sawTS {
			return sess, ts, true
		}
		if b[end] == '}' {
			return nil, 0, false
		}
		i = end + 1
	}
}

// HotSessionShare reports the fraction of a sample of draws landing on the
// hottest session — a direct measure of the configured skew, used in tests
// and the Figure 9 discussion.
func (v *Video) HotSessionShare(samples int) float64 {
	hot := 0
	for i := 0; i < samples; i++ {
		if v.sampleSession(mix(uint64(i)+v.cfg.Seed)) == 0 {
			hot++
		}
	}
	return float64(hot) / float64(samples)
}
