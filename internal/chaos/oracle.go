package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/dag"
	"drizzle/internal/data"
)

// srcVal is the deterministic per-record value: a splitmix-style hash of
// (seed, batch, partition, index) folded into a small range. Values vary
// per record (not all 1) so a lost micro-batch and a double-counted one
// produce different wrong sums — either corruption shifts some window off
// its oracle value.
func srcVal(seed, batch int64, partition, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 +
		uint64(batch)*0xbf58476d1ce4e5b9 +
		uint64(partition)*0x94d049bb133111eb +
		uint64(i)*0x2545f4914f6cdd1d
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return int64(h%7) + 1
}

// chaosSource generates numKeys*repeats records per (batch, partition) with
// event times spread across the batch interval. It is a pure function of
// its arguments, which is the property both replay-based recovery and the
// sequential oracle rely on.
func chaosSource(seed int64, numKeys, repeats int) dag.SourceFunc {
	return func(b dag.BatchInfo) []data.Record {
		n := numKeys * repeats
		recs := make([]data.Record, 0, n)
		span := b.End - b.Start
		for i := 0; i < n; i++ {
			at := b.Start + int64(i)*span/int64(n)
			recs = append(recs, data.Record{
				Key:  uint64(i % numKeys),
				Val:  srcVal(seed, b.Batch, b.Partition, i),
				Time: at,
			})
		}
		return recs
	}
}

// windowJob builds the scenario's two-stage job: deterministic source ->
// shuffle -> windowed sum into the conflict-detecting sink.
func windowJob(sc Scenario, sink *oracleSink) *dag.Job {
	// TaskCost becomes a pass-through narrow op that burns real wall time in
	// each map task. The sequential oracle is unaffected (expectedWindows
	// consumes the source directly), but a slow-worker multiplier now
	// stretches something measurable so the straggler detector can fire.
	var ops []dag.NarrowOp
	if sc.TaskCost > 0 {
		cost := sc.TaskCost
		ops = append(ops, func(recs []data.Record) []data.Record {
			time.Sleep(cost)
			return recs
		})
	}
	return &dag.Job{
		Name:     jobName,
		Interval: sc.Interval,
		Stages: []dag.Stage{
			{
				ID:            0,
				NumPartitions: sc.MapParts,
				Source:        chaosSource(sc.Seed, sc.NumKeys, sc.Repeats),
				Ops:           ops,
				Shuffle:       &dag.ShuffleSpec{NumReducers: sc.ReduceParts},
			},
			{
				ID:            1,
				NumPartitions: sc.ReduceParts,
				Parents:       []int{0},
				Reduce:        dag.Sum,
				Window:        &dag.WindowSpec{Size: time.Duration(sc.WindowBatches) * sc.Interval},
				Sink:          sink.fn,
			},
		},
	}
}

// expectedWindows runs the source sequentially through a reference
// implementation and returns the (window, key) -> sum map for every window
// that closes by the last batch. This is the ground truth the distributed
// run is compared against.
func expectedWindows(sc Scenario, startNanos int64) map[[2]int64]int64 {
	win := dag.WindowSpec{Size: time.Duration(sc.WindowBatches) * sc.Interval}
	interval := int64(sc.Interval)
	src := chaosSource(sc.Seed, sc.NumKeys, sc.Repeats)
	sums := make(map[[2]int64]int64)
	for b := 0; b < sc.Batches; b++ {
		for p := 0; p < sc.MapParts; p++ {
			info := dag.BatchInfo{
				Batch:     int64(b),
				Partition: p,
				Start:     startNanos + int64(b)*interval,
				End:       startNanos + int64(b+1)*interval,
			}
			for _, r := range src(info) {
				w := win.Assign(r.Time)
				sums[[2]int64{w, int64(r.Key)}] += r.Val
			}
		}
	}
	lastClose := startNanos + int64(sc.Batches)*interval
	for k := range sums {
		if k[0]+int64(win.Size) > lastClose {
			delete(sums, k) // window still open when the run ended
		}
	}
	return sums
}

// diffWindows describes the first few mismatches between the oracle and the
// observed results, or "" when they agree exactly.
func diffWindows(want, got map[[2]int64]int64) string {
	var diffs []string
	for k, wv := range want {
		if gv, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing window=%d key=%d (want %d)", k[0], k[1], wv))
		} else if gv != wv {
			diffs = append(diffs, fmt.Sprintf("window=%d key=%d: got %d want %d", k[0], k[1], gv, wv))
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("unexpected window=%d key=%d (got %d)", k[0], k[1], gv))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 10 {
		diffs = append(diffs[:10], fmt.Sprintf("... and %d more", len(diffs)-10))
	}
	return "    " + fmt.Sprint(len(diffs)) + " diffs:\n    " + joinLines(diffs)
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n    "
		}
		out += s
	}
	return out
}

// oracleSink records windowed results keyed by (window, key). Re-emitting
// the same value is legal (the idempotent-sink contract recovery depends
// on); two *different* values for the same key means a micro-batch was lost
// or applied twice somewhere — the exactly-once violation the harness
// exists to catch.
type oracleSink struct {
	mu        sync.Mutex
	results   map[[2]int64]int64
	conflicts []string
	writes    int
}

func newOracleSink() *oracleSink {
	return &oracleSink{results: make(map[[2]int64]int64)}
}

func (s *oracleSink) fn(batch int64, partition int, out []data.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range out {
		k := [2]int64{r.Time, int64(r.Key)}
		if prev, ok := s.results[k]; ok && prev != r.Val {
			if len(s.conflicts) < 16 {
				s.conflicts = append(s.conflicts, fmt.Sprintf(
					"window=%d key=%d rewritten %d -> %d (batch %d, partition %d)",
					r.Time, r.Key, prev, r.Val, batch, partition))
			}
		}
		s.results[k] = r.Val
		s.writes++
	}
}

func (s *oracleSink) snapshot() map[[2]int64]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[[2]int64]int64, len(s.results))
	for k, v := range s.results {
		out[k] = v
	}
	return out
}

func (s *oracleSink) conflictList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.conflicts...)
}

// watermarkStore wraps the in-memory checkpoint store and records a
// violation if the latest snapshot for any key ever moves to an older
// batch — the monotonic-watermark invariant the driver's recovery logic
// depends on when deciding which snapshot a new owner restores from. Every
// other method is the embedded MemStore's.
type watermarkStore struct {
	*checkpoint.MemStore

	mu     sync.Mutex
	high   map[checkpoint.StateKey]int64
	puts   int64
	regres []string
}

func newWatermarkStore() *watermarkStore {
	return &watermarkStore{
		MemStore: checkpoint.NewMemStore(),
		high:     make(map[checkpoint.StateKey]int64),
	}
}

func (ws *watermarkStore) Put(s *checkpoint.Snapshot) error {
	err := ws.MemStore.Put(s)
	latest, ok, _ := ws.MemStore.Latest(s.Key)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.puts++
	if ok {
		if prev, seen := ws.high[s.Key]; seen && latest.Batch < prev {
			if len(ws.regres) < 16 {
				ws.regres = append(ws.regres, fmt.Sprintf(
					"key %v regressed from batch %d to %d", s.Key, prev, latest.Batch))
			}
		} else if latest.Batch > prev || !seen {
			ws.high[s.Key] = latest.Batch
		}
	}
	return err
}

func (ws *watermarkStore) putCount() int64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.puts
}

func (ws *watermarkStore) regressions() []string {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return append([]string(nil), ws.regres...)
}
