package workload

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// digitCases are the values at every width change of the renderer and of
// strconv, and at both ends of int64 and uint64.
var digitCases = []int64{
	0, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 99_999, 100_000,
	99_999_999, 100_000_000, 999_999_999, 1_000_000_000, 1_000_000_001,
	9_999_999_999, 10_000_000_000, 999_999_999_999_999_999, 1_000_000_000_000_000_000,
	1_700_000_000_123_456_789, math.MaxInt64 - 1, math.MaxInt64,
	-1, -9, -10, -999_999_999, -1_000_000_000, -1_700_000_000_123_456_789,
	math.MinInt64 + 1, math.MinInt64,
}

// TestDigitsMatchStrconv holds every digit kernel to strconv: appendUint and
// appendSmall for the fields, append4 for four fixed digits, and an
// eventClock — fresh, and one carried across the whole run in any order, as
// its cache would be — for event times of every sign and size.
func TestDigitsMatchStrconv(t *testing.T) {
	var carried eventClock
	check := func(x int64) {
		t.Helper()
		prefix := []byte("x:")
		want := strconv.AppendInt(prefix[:2:2], x, 10)
		var fresh eventClock
		if got := fresh.appendTime(prefix[:2:2], x); !bytes.Equal(got, want) {
			t.Fatalf("fresh clock renders %d as %q", x, got)
		}
		if got := carried.appendTime(prefix[:2:2], x); !bytes.Equal(got, want) {
			t.Fatalf("carried clock renders %d as %q", x, got)
		}
		u := uint64(x)
		if got, want := appendUint(prefix[:2:2], u), strconv.AppendUint(prefix[:2:2], u, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %q, want %q", u, got, want)
		}
		if u < 10_000 {
			if got := appendSmall(prefix[:2:2], uint32(u)); !bytes.Equal(got, strconv.AppendUint(prefix[:2:2], u, 10)) {
				t.Fatalf("appendSmall(%d) = %q", u, got)
			}
			// The digits of 10 000 + u behind its leading 1 are u's four.
			if got, want := append4(nil, uint32(u)), strconv.AppendUint(nil, 10_000+u, 10)[1:]; !bytes.Equal(got, want) {
				t.Fatalf("append4(%d) = %q, want %q", u, got, want)
			}
		}
	}
	for _, x := range digitCases {
		check(x)
	}
	check(-1) // math.MaxUint64 for appendUint
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 1_000_000; i++ {
		// Shift a random word right by a random amount so every width is
		// drawn about as often as every other.
		x := int64(rng.Uint64() >> rng.Intn(64))
		if i%4 == 0 {
			x = -x
		}
		check(x)
	}
	// A clock run the way gen runs it: ascending times, across seconds.
	at := int64(1_700_000_000_999_000_000)
	for i := 0; i < 100_000; i++ {
		at += rng.Int63n(100_000)
		check(at)
	}
}

// TestSessionSamplerMatchesBinarySearch holds the bucketed sampler to the
// full binary search it replaced, at every bucket edge ±1, every CDF value
// ±1 and on a million random draws — with one session, with fewer sessions
// than buckets, and with more (70 000).
func TestSessionSamplerMatchesBinarySearch(t *testing.T) {
	for _, sessions := range []int{1, 2, 3, 200, 50_000, 70_000} {
		v := NewVideo(VideoConfig{Sessions: sessions, EventsPerSecPerPartition: 1, ZipfS: 1.2, Seed: 1})
		check := func(u uint64) {
			if got, want := v.sampleSession(u), v.refSampleSession(u); got != want {
				t.Fatalf("%d sessions: draw %#x samples session %d, want %d", sessions, u, got, want)
			}
		}
		for b := uint64(0); b <= 1<<16; b++ {
			edge := b << 16
			check(edge - 1)
			check(edge)
			check(edge + 1)
			check(edge | 0xdead<<32) // only the low 32 bits count
		}
		for _, c := range v.cdf {
			check(c - 1)
			check(c)
			check(c + 1)
		}
		rng := rand.New(rand.NewSource(int64(sessions)))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Uint64())
		}
	}
}

// TestRendererMatchesReference renders random events both ways — through
// the digit tables and the clock carried across the batch, and through
// strconv — at event times of every magnitude, ascending as in a batch.
func TestRendererMatchesReference(t *testing.T) {
	y := NewYahoo(DefaultYahooConfig())
	v := NewVideo(VideoConfig{Sessions: 70_000, EventsPerSecPerPartition: 1, ZipfS: 1.2, Seed: 1})
	rng := rand.New(rand.NewSource(3))
	var got, want []byte
	for batch := 0; batch < 2_000; batch++ {
		var clock eventClock
		times := make([]int64, 50)
		for i := range times {
			times[i] = int64(rng.Uint64()>>rng.Intn(64)) - int64(rng.Intn(2))<<62
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for _, at := range times {
			h := rng.Uint64()
			ad := y.adIDs[h%uint64(len(y.adIDs))]
			etype := eventTypes[(h>>32)%3]
			got = appendEvent(got[:0], &clock, h, ad, etype, at)
			want = refAppendEvent(want[:0], h, ad, etype, at)
			if !bytes.Equal(got, want) {
				t.Fatalf("event renders as\n%s\nwant\n%s", got, want)
			}
			sess, ev, bitrate := int(h%uint64(len(v.keys))), heartbeatEvents[(h>>33)%4], 400+(h>>35)%4000
			got = v.appendHeartbeat(got[:0], &clock, sess, ev, bitrate, at)
			want = v.refAppendHeartbeat(want[:0], sess, ev, bitrate, at)
			if !bytes.Equal(got, want) {
				t.Fatalf("heartbeat renders as\n%s\nwant\n%s", got, want)
			}
		}
	}
}

// TestEventTicksMatchDivision holds the quotient/remainder walk to the
// per-event from + i·span/n it replaced.
func TestEventTicksMatchDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2_000; trial++ {
		from := rng.Int63() - rng.Int63()
		span := 1 + rng.Int63n(1<<31)
		n := 1 + rng.Intn(5_000)
		if trial%3 == 0 {
			span, n = 1+rng.Int63n(10), 1+rng.Intn(20) // steps of 0, 1 and 2
		}
		ticks := newEventTicks(from, span, n)
		for i := 0; i < n; i++ {
			if want := from + int64(i)*span/int64(n); ticks.at != want {
				t.Fatalf("from %d span %d n %d: event %d at %d, want %d", from, span, n, i, ticks.at, want)
			}
			ticks.next()
		}
	}
}
