package workload

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// epoch is a realistic batch start: event times have 19 digits, as in a
// live run.
const epoch = int64(1_700_000_000) * int64(time.Second)

// goldenSlice is one fixed (generator, partition, from, to) slice of a
// workload's event stream: gen calls Gen, source the engine's SourceFunc on
// the scratch given.
type goldenSlice struct {
	name   string
	gen    func() []data.Record
	source func(*data.SourceScratch) []data.Record
}

// goldenSlices are the slices behind testdata/golden_gen.txt: both
// generators, at their default shape and at the repo benchmark's, at small
// and at realistic event times.
func goldenSlices() []goldenSlice {
	ms := int64(time.Millisecond)
	yDefault := NewYahoo(DefaultYahooConfig())
	yBench := NewYahoo(YahooConfig{
		Campaigns: 100, AdsPerCampaign: 10, EventsPerSecPerPartition: 200_000,
		WindowSize: 200 * time.Millisecond, Seed: 7,
	})
	vDefault := NewVideo(DefaultVideoConfig())
	vBench := NewVideo(VideoConfig{
		Sessions: 50_000, EventsPerSecPerPartition: 50_000, ZipfS: 1.2,
		WindowSize: 300 * time.Millisecond, Seed: 101,
	})
	slice := func(name string, src dag.SourceFunc, gen func(int, int64, int64) []data.Record, partition int, from, to int64) goldenSlice {
		return goldenSlice{
			name: name,
			gen:  func() []data.Record { return gen(partition, from, to) },
			source: func(sc *data.SourceScratch) []data.Record {
				return src(dag.BatchInfo{Partition: partition, Start: from, End: to, Scratch: sc})
			},
		}
	}
	return []goldenSlice{
		slice("yahoo-default/p0/t0", yDefault.SourceFunc(), yDefault.Gen, 0, 0, 50*ms),
		slice("yahoo-default/p3/epoch", yDefault.SourceFunc(), yDefault.Gen, 3, epoch, epoch+100*ms),
		slice("yahoo-bench/p2/epoch", yBench.SourceFunc(), yBench.Gen, 2, epoch+100*ms, epoch+120*ms),
		slice("video-default/p0/t0", vDefault.SourceFunc(), vDefault.Gen, 0, 0, 100*ms),
		slice("video-bench/p1/epoch", vBench.SourceFunc(), vBench.Gen, 1, epoch, epoch+50*ms),
	}
}

// genDigest folds every record's event time and payload bytes, in order,
// into one FNV-1a value.
func genDigest(recs []data.Record) string {
	h := fnv.New64a()
	var hdr [12]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(hdr[:8], uint64(r.Time))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Payload)))
		h.Write(hdr[:])
		h.Write(r.Payload)
	}
	return fmt.Sprintf("%d %016x", len(recs), h.Sum64())
}

// viewCountsDigest writes a whole ExpectedViewCounts result down as one
// golden line.
func viewCountsDigest(counts map[[2]int64]int64) string {
	keys := make([][2]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	h := fnv.New64a()
	var buf [24]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:8], uint64(k[0]))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(k[1]))
		binary.LittleEndian.PutUint64(buf[16:], uint64(counts[k]))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d %016x", len(keys), h.Sum64())
}

// TestGenBytesMatchGolden pins the event streams byte for byte. The digests
// in testdata/golden_gen.txt were written by commit 4f13ebc, the last one
// that rendered every event into a buffer of its own: recovery replays a
// lost batch by calling Gen again, and the repo benchmark's reference
// recomputes windows from it, so an optimisation of the generator may not
// move one byte of its output.
func TestGenBytesMatchGolden(t *testing.T) {
	f, err := os.Open("testdata/golden_gen.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, digest, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	check := func(name, got string) {
		t.Helper()
		if want, ok := golden[name]; !ok {
			t.Errorf("no golden vector: %s %s", name, got)
		} else if got != want {
			t.Errorf("%s: stream is %s, golden %s", name, got, want)
		}
	}
	slices := goldenSlices()
	for _, s := range slices {
		a, b := s.gen(), s.gen()
		check(s.name, genDigest(a))
		// Replayability: a second call yields equal bytes in memory of its own.
		if len(a) != len(b) {
			t.Fatalf("%s: %d events, then %d", s.name, len(a), len(b))
		}
		for i := range a {
			if a[i].Time != b[i].Time || !bytes.Equal(a[i].Payload, b[i].Payload) {
				t.Fatalf("%s: event %d differs between two calls", s.name, i)
			}
		}
	}
	// The engine's path: every slice rendered through SourceFunc into one
	// scratch, as one executor slot runs its tasks. In list order the
	// batches grow, shrink (yahoo-bench → video-default) and grow past every
	// earlier size (video-bench's arena); the second pass reuses the scratch
	// at its full size. Whatever a larger batch left behind must not show.
	var scratch data.SourceScratch
	for pass := 0; pass < 2; pass++ {
		for _, s := range slices {
			check(s.name, genDigest(s.source(&scratch)))
		}
	}
	cfg := DefaultYahooConfig()
	cfg.WindowSize = 100 * time.Millisecond
	views := NewYahoo(cfg).ExpectedViewCounts(3, epoch, epoch+int64(300*time.Millisecond))
	check("yahoo-default/expected-views", viewCountsDigest(views))
	if len(golden) != len(slices)+1 {
		t.Errorf("checked %d digests against %d golden vectors", len(slices)+1, len(golden))
	}
}

// TestPayloadAppendLeavesNeighbourIntact: payloads of one batch share a
// backing array, so each must be capped at its own length — an op that
// appends to one gets a copy instead of writing over the next event. That
// holds for Gen's own arena and for one lent by the engine, where the
// buffer's spare capacity lies behind the last payload.
func TestPayloadAppendLeavesNeighbourIntact(t *testing.T) {
	var sc data.SourceScratch
	for _, s := range goldenSlices() {
		for path, recs := range map[string][]data.Record{"Gen": s.gen(), "SourceFunc": s.source(&sc)} {
			want := make([][]byte, len(recs))
			for i, r := range recs {
				if cap(r.Payload) != len(r.Payload) {
					t.Fatalf("%s via %s: event %d has len %d cap %d", s.name, path, i, len(r.Payload), cap(r.Payload))
				}
				want[i] = append([]byte(nil), r.Payload...)
			}
			for i := range recs {
				_ = append(recs[i].Payload, "XXXXXXXXXXXXXXXX"...)
			}
			for i, r := range recs {
				if !bytes.Equal(r.Payload, want[i]) {
					t.Fatalf("%s via %s: event %d changed after appends to other payloads", s.name, path, i)
				}
			}
		}
	}
}
