package engine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
	"drizzle/internal/snappy"
	"drizzle/internal/workload"
)

// This file tests the data path of one micro-batch (DESIGN.md has the
// picture): the streaming fold against the materialising one, the task-level
// guarantees built on it, and its allocation budget.

// referencePartition is window state the way ApplyBatch kept it before
// blocks could be folded in place: window arithmetic and an outer-map lookup
// for every record, no cached window. ApplyBatch and ApplyBlocks now share
// one fold, so the differential tests hold both to this model.
type referencePartition struct {
	windows                        map[int64]map[uint64]int64
	applied                        map[core.BatchID]bool
	appliedThrough, emittedThrough int64
}

func newReferencePartition() *referencePartition {
	return &referencePartition{
		windows:        make(map[int64]map[uint64]int64),
		applied:        make(map[core.BatchID]bool),
		appliedThrough: -1,
	}
}

func (p *referencePartition) apply(batch core.BatchID, recs []data.Record, reduce dag.ReduceFunc, window dag.WindowSpec, closeNanos func(core.BatchID) int64) (emitted []data.Record, dup bool) {
	if p.applied[batch] || int64(batch) <= p.appliedThrough {
		return nil, true
	}
	for _, r := range recs {
		w := window.Assign(r.Time)
		if p.windows[w] == nil {
			p.windows[w] = make(map[uint64]int64)
		}
		if v, ok := p.windows[w][r.Key]; ok {
			p.windows[w][r.Key] = reduce(v, r.Val)
		} else {
			p.windows[w][r.Key] = r.Val
		}
	}
	p.applied[batch] = true
	for p.applied[core.BatchID(p.appliedThrough+1)] {
		delete(p.applied, core.BatchID(p.appliedThrough+1))
		p.appliedThrough++
	}
	if p.appliedThrough < int64(batch) {
		return nil, false
	}
	watermark := closeNanos(core.BatchID(p.appliedThrough))
	for w, kv := range p.windows {
		if end := w + int64(window.Size); end <= watermark && end > p.emittedThrough {
			for k, v := range kv {
				emitted = append(emitted, data.Record{Key: k, Val: v, Time: w})
			}
			delete(p.windows, w)
		}
	}
	if watermark > p.emittedThrough {
		p.emittedThrough = watermark
	}
	return emitted, false
}

func sortedRecords(recs []data.Record) []data.Record {
	out := append([]data.Record{}, recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// encodeAs encodes recs as a reduce task can meet them: plain (even format)
// or inside the snappy envelope (odd format; forced, so small blocks get one
// too).
func encodeAs(format int, recs []data.Record) []byte {
	plain := data.EncodeBatchColumnar(nil, recs)
	if format%2 == 0 {
		return plain
	}
	env := append(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF), 2)
	return snappy.AppendEncoded(env, plain)
}

// openAll opens blocks the way an executor slot does: one inflate buffer
// under all of them.
func openAll(t testing.TB, raw [][]byte) []data.Batch {
	t.Helper()
	var inflate []byte
	out := make([]data.Batch, len(raw))
	for i, b := range raw {
		var err error
		if out[i], err = data.OpenBatch(b, &inflate); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	return out
}

// TestApplyBlocksMatchesDecodeAndApplyBatch is the property behind the
// reduce side: folding encoded blocks in place leaves exactly the state, the
// emitted records and the duplicate verdict that decoding them and applying
// the records does — and both match the per-record reference model. Batches
// arrive out of order and repeated, span several windows, carry payloads and
// unsorted keys and times (negative deltas), plain and compressed.
func TestApplyBlocksMatchesDecodeAndApplyBatch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		interval := int64(100 * time.Millisecond)
		win := dag.WindowSpec{Size: time.Duration(1+rng.Intn(3)) * 100 * time.Millisecond}
		closeNanos := func(b core.BatchID) int64 { return int64(b+1) * interval }
		reduce := []dag.ReduceFunc{dag.Sum, dag.Max}[rng.Intn(2)]

		order := rng.Perm(12)
		for i := 0; i < 4; i++ { // replays and re-executed tasks
			order = append(order, rng.Intn(12))
		}
		streamed, decoded, model := NewStateStore(), NewStateStore(), newReferencePartition()
		var agg shuffle.AggTable // one for every task, as in a slot
		for _, b := range order {
			batch := core.BatchID(b)
			var raw [][]byte
			var all []data.Record
			for blk := rng.Intn(5); blk > 0; blk-- {
				recs := make([]data.Record, rng.Intn(200))
				for i := range recs {
					// Event times straddle the batch's own interval on both
					// sides, so one block feeds several windows, out of order.
					recs[i] = data.Record{
						Key:  uint64(rng.Intn(30)) * 0x9E3779B97F4A7C15,
						Val:  int64(rng.Intn(100)) - 50,
						Time: int64(b)*interval + rng.Int63n(3*interval) - interval,
					}
					if rng.Intn(4) == 0 {
						recs[i].Payload = make([]byte, 1+rng.Intn(20))
					}
				}
				raw = append(raw, encodeAs(rng.Intn(4), recs))
				all = append(all, recs...)
			}

			gotEmitted, gotDup := streamed.ApplyBlocks(testKey, batch, openAll(t, raw), reduce, win, closeNanos, &agg)
			var recs []data.Record
			for _, blk := range raw {
				rs, _, err := data.DecodeBatch(blk)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rs...)
			}
			wantEmitted, wantDup := decoded.ApplyBatch(testKey, batch, recs, reduce, win, closeNanos)
			refEmitted, refDup := model.apply(batch, all, reduce, win, closeNanos)

			if gotDup != wantDup || gotDup != refDup {
				t.Fatalf("seed %d batch %d: dup streamed=%v decoded=%v reference=%v", seed, b, gotDup, wantDup, refDup)
			}
			if got, want, ref := sortedRecords(gotEmitted), sortedRecords(wantEmitted), sortedRecords(refEmitted); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d batch %d: emitted\nstreamed  %v\ndecoded   %v\nreference %v", seed, b, got, want, ref)
			}
			sp, dp := streamed.partition(testKey), decoded.partition(testKey)
			if !reflect.DeepEqual(sp.windows, dp.windows) || !reflect.DeepEqual(sp.windows, model.windows) {
				t.Fatalf("seed %d batch %d: window maps diverge\nstreamed  %v\ndecoded   %v\nreference %v", seed, b, sp.windows, dp.windows, model.windows)
			}
			if int64(sp.appliedThrough) != model.appliedThrough || sp.emittedThrough != model.emittedThrough ||
				sp.appliedThrough != dp.appliedThrough || sp.emittedThrough != dp.emittedThrough {
				t.Fatalf("seed %d batch %d: watermarks diverge", seed, b)
			}
		}
	}
}

// TestWindowFolderAtTheEdgesOfTime feeds the cached-window fold event times
// where the window arithmetic wraps around: it must still put every record
// where WindowSpec.Assign says, never in a stale cached window.
func TestWindowFolderAtTheEdgesOfTime(t *testing.T) {
	win := dag.WindowSpec{Size: 7 * time.Second}
	times := []int64{0, 1, -1, math.MinInt64, math.MinInt64 + 1, math.MinInt64 + int64(win.Size), math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt64 - int64(win.Size), -int64(win.Size), int64(win.Size) - 1, int64(win.Size), math.MinInt64, 3, math.MaxInt64, -3}
	got := make(map[int64]map[uint64]int64)
	f := windowFolder{windows: got, window: win}
	want := make(map[int64]map[uint64]int64)
	for i, tm := range times {
		f.add(uint64(i), 1, tm, dag.Sum)
		w := win.Assign(tm)
		if want[w] == nil {
			want[w] = make(map[uint64]int64)
		}
		want[w][uint64(i)] = 1
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached fold put records in %v, Assign says %v", got, want)
	}
}

func FuzzApplyBlocks(f *testing.F) {
	f.Add(encodeAs(0, []data.Record{rec(1, 1, 10), rec(2, 5, 250)}), int64(200))
	f.Add(encodeAs(1, []data.Record{rec(1, 1, 10), rec(1, 2, 110), rec(7, 3, 90)}), int64(100))
	f.Add(encodeAs(3, []data.Record{{Key: 1, Val: 1, Time: math.MinInt64 + 5}, {Key: 1, Val: 1, Time: math.MaxInt64}, {Key: 1, Val: 1, Time: -1}}), int64(1000))
	f.Fuzz(func(t *testing.T, block []byte, sizeMillis int64) {
		if sizeMillis <= 0 || sizeMillis > 1<<40 {
			return
		}
		recs, _, err := data.DecodeBatch(block)
		if err != nil {
			if _, err := data.OpenBatch(block, nil); err == nil {
				t.Fatal("OpenBatch accepted a block DecodeBatch rejects")
			}
			return
		}
		win := dag.WindowSpec{Size: time.Duration(sizeMillis) * time.Millisecond}
		// Two batches, so the second fold starts from non-empty state; the
		// far-future close time of batch 1 emits whatever can be emitted.
		closeNanos := func(b core.BatchID) int64 { return []int64{0, math.MaxInt64}[b] }
		streamed, decoded := NewStateStore(), NewStateStore()
		for batch := core.BatchID(0); batch < 2; batch++ {
			got, _ := streamed.ApplyBlocks(testKey, batch, openAll(t, [][]byte{block, block}), dag.Sum, win, closeNanos, nil)
			want, _ := decoded.ApplyBatch(testKey, batch, append(append([]data.Record{}, recs...), recs...), dag.Sum, win, closeNanos)
			if !reflect.DeepEqual(sortedRecords(got), sortedRecords(want)) {
				t.Fatalf("batch %d: streamed fold emitted %v, decode+apply %v", batch, got, want)
			}
			if sw, dw := streamed.partition(testKey).windows, decoded.partition(testKey).windows; !reflect.DeepEqual(sw, dw) {
				t.Fatalf("batch %d: window maps diverge: streamed %v, decode+apply %v", batch, sw, dw)
			}
		}
	})
}

// bareWorker returns a worker that is not attached to anything — no slots,
// no heartbeats — with job registered, and one slot's scratch, so a test can
// run single tasks through Worker.execute on its own goroutine.
func bareWorker(t testing.TB, job *dag.Job) (*Worker, *slotScratch) {
	t.Helper()
	net := rpc.NewInMemNetwork(rpc.InMemConfig{})
	t.Cleanup(net.Close)
	w := NewWorker("w0", "driver", net, NewRegistry(), DefaultConfig())
	w.jobs[job.Name] = &jobInfo{name: job.Name, job: job}
	return w, newSlotScratch()
}

// shuffleJob is source (stage 0) -> windowed count (stage 1), the shape of
// every benchmark workload and paper job: the reduce side has no narrow ops,
// so it folds its blocks in place.
func shuffleJob(source dag.SourceFunc, maps, reducers int, combine bool) *dag.Job {
	spec := &dag.ShuffleSpec{NumReducers: reducers}
	if combine {
		spec.Combine, spec.CombineFunc = true, dag.Sum
	}
	return &dag.Job{
		Name:     "datapath",
		Interval: time.Millisecond,
		Stages: []dag.Stage{
			{ID: 0, NumPartitions: maps, Source: source, Shuffle: spec},
			{ID: 1, NumPartitions: reducers, Parents: []int{0}, Reduce: dag.Sum, Window: &dag.WindowSpec{Size: time.Second}},
		},
	}
}

// reduceTask describes the stage-1 task of batch over maps local blocks.
func reduceTask(w *Worker, job *dag.Job, batch core.BatchID, maps int) core.RunnableTask {
	rt := core.RunnableTask{
		Desc:      core.TaskDescriptor{Job: job.Name, ID: core.TaskID{Batch: batch, Stage: 1, Partition: 0}},
		Locations: make(map[core.Dep]rpc.NodeID),
	}
	for m := 0; m < maps; m++ {
		d := core.Dep{Job: job.Name, Batch: batch, Stage: 0, MapPartition: m}
		rt.Desc.Deps = append(rt.Desc.Deps, d)
		rt.Locations[d] = w.id
	}
	return rt
}

// TestCorruptBlockFailsTaskBeforeState: every block of a reduce task is
// validated before the first record is folded, so a task whose third of four
// blocks is corrupt — truncated, overwritten, in an unknown or stale format,
// a good batch with bytes after it, or a dictionary key column that does not
// add up — fails with the state exactly as it
// was: no half-applied batch for the retry to double-count, and the batch
// not marked applied.
func TestCorruptBlockFailsTaskBeforeState(t *testing.T) {
	const maps = 4
	job := shuffleJob(nil, maps, 1, false)
	w, sc := bareWorker(t, job)
	key := checkpoint.StateKey{Job: job.Name, Stage: 1, Partition: 0}
	block := func(batch core.BatchID, m int) shuffle.BlockID {
		return shuffle.BlockID{Job: job.Name, Batch: int64(batch), Stage: 0, MapPartition: m, ReducePartition: 0}
	}
	records := func(batch core.BatchID) []data.Record {
		recs := make([]data.Record, 500)
		for i := range recs {
			recs[i] = data.Record{Key: uint64(i % 50), Val: 1, Time: int64(batch)*int64(job.Interval) + int64(i)}
		}
		return recs
	}
	put := func(batch core.BatchID) {
		for m := 0; m < maps; m++ {
			w.store.Put(block(batch, m), records(batch))
		}
	}
	run := func(batch core.BatchID) error {
		_, err := w.execute(reduceTask(w, job, batch, maps), sc, nil, 0)
		sc.release()
		return err
	}

	put(0)
	if err := run(0); err != nil {
		t.Fatal(err)
	}
	before, ok := w.states.Snapshot(key, 0)
	if !ok {
		t.Fatal("no snapshot after batch 0")
	}

	put(1)
	good, _ := w.store.GetRaw(block(1, 2))
	// The block's 500 records have 50 keys, so it is stored plain with
	// dictionary keys: count, flags (bit 2), d, d keys, 500 indices.
	count, n := binary.Uvarint(good[5:])
	flags := 5 + n
	d, n := binary.Uvarint(good[flags+1:])
	dict := flags + 1 + n
	indices := dict + 8*int(d)
	if count != 500 || good[flags]&4 == 0 || d != 50 {
		t.Fatalf("good block: count %d, flags %#x, dictionary of %d keys; want 500 records with 50 dictionary keys", count, good[flags], d)
	}
	with := func(at int, b ...byte) []byte {
		return append(append(append([]byte{}, good[:at]...), b...), good[at+len(b):]...)
	}
	for name, bad := range map[string][]byte{
		"truncated":      good[:len(good)/2],
		"flipped":        append(append([]byte{}, good[:len(good)-9]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		"unknown format": {0xFF, 0xFF, 0xFF, 0xFF, 9},
		"stale row":      append(binary.LittleEndian.AppendUint32(nil, 1), make([]byte, 28)...),
		// A whole, uncompressed batch with one byte after it.
		"trailing byte": append(data.EncodeBatchColumnar(nil, records(1)), 0),
		// Dictionary keys: an index at d, an empty dictionary, one longer
		// than the batch, one cut short, and an index column cut short.
		"index out of range":    with(indices+300, byte(d)),
		"empty dictionary":      with(flags+1, 0),
		"dictionary over count": append(append(append([]byte{}, good[:flags+1]...), binary.AppendUvarint(nil, count+1)...), good[dict:]...),
		"dictionary past end":   good[:indices-3],
		"truncated indices":     good[:indices+250],
	} {
		w.store.PutRaw(block(1, 2), bad)
		err := run(1)
		if err == nil || !strings.Contains(err.Error(), "MapPartition:2") {
			t.Fatalf("%s third block: task error %v, want one naming the block", name, err)
		}
		after, ok := w.states.Snapshot(key, 0)
		if !ok || !reflect.DeepEqual(before, after) {
			t.Fatalf("%s third block: state changed under a failed task:\nbefore %+v\nafter  %+v", name, before, after)
		}
		if _, ok := w.states.Snapshot(key, 1); ok {
			t.Fatalf("%s third block: failed task marked batch 1 applied", name)
		}
	}

	// The retry, once the block is whole again, applies the batch in full.
	w.store.PutRaw(block(1, 2), good)
	if err := run(1); err != nil {
		t.Fatal(err)
	}
	snap, ok := w.states.Snapshot(key, 1)
	if !ok {
		t.Fatal("batch 1 not applied by the retry")
	}
	var total int64
	for _, kv := range snap.Windows {
		for _, v := range kv {
			total += v
		}
	}
	if total != 2*maps*500 {
		t.Fatalf("state counts %d records after two batches of %d", total, maps*500)
	}
}

// TestEmptyInputsAreNotOpened: a reduce task reads its empty input blocks —
// stored as zero bytes, or carried as nil — as no records: data.OpenBatch
// never sees them, and a task whose inputs are all empty still applies its
// batch, so the partition's applied-through advances and its windows close.
func TestEmptyInputsAreNotOpened(t *testing.T) {
	const maps = 4
	job := shuffleJob(nil, maps, 1, false)
	w, sc := bareWorker(t, job)
	key := checkpoint.StateKey{Job: job.Name, Stage: 1, Partition: 0}
	block := func(batch core.BatchID, m int) shuffle.BlockID {
		return shuffle.BlockID{Job: job.Name, Batch: int64(batch), Stage: 0, MapPartition: m}
	}
	for batch := core.BatchID(0); batch < 3; batch++ {
		for m := 0; m < maps; m++ {
			if batch == 1 && m == 2 {
				w.store.Put(block(batch, m), []data.Record{{Key: 5, Val: 7, Time: int64(batch) * int64(job.Interval)}})
			} else {
				w.store.PutRaw(block(batch, m), nil)
			}
		}
		if _, err := w.execute(reduceTask(w, job, batch, maps), sc, nil, 0); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		sc.release()
		if at := w.states.AppliedThrough(key); at != batch {
			t.Fatalf("batch %d: applied through %d", batch, at)
		}
	}
	snap, ok := w.states.Snapshot(key, 2)
	if !ok {
		t.Fatal("no snapshot after batch 2")
	}
	var total int64
	for _, kv := range snap.Windows {
		for _, v := range kv {
			total += v
		}
	}
	if total != 7 {
		t.Fatalf("state sums to %d after one record of 7 among empty blocks", total)
	}
}

// allocsPerTask runs one task per call of next through Worker.execute and
// returns the average allocation count, after a first task has sized the
// slot's scratch.
func allocsPerTask(t *testing.T, w *Worker, sc *slotScratch, next func() core.RunnableTask) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if _, err := w.execute(next(), sc, nil, 0); err != nil {
			t.Fatal(err)
		}
		sc.release()
	})
}

// TestMapTaskAllocationsIndependentOfRecords: a map task allocates per block
// it stores (the block itself, exact size) and a constant besides — nothing
// per record, with or without the combiner. The source hands out a prebuilt
// slice so that only the engine's own allocations are counted. Its 64 keys
// repeat, so every uncombined block takes dictionary keys: the writer's
// dictionary scratch is reused from block to block.
func TestMapTaskAllocationsIndependentOfRecords(t *testing.T) {
	const reducers = 4
	for _, combine := range []bool{false, true} {
		var counts []float64
		for _, n := range []int{1_000, 30_000} {
			recs := make([]data.Record, n)
			for i := range recs {
				recs[i] = data.Record{Key: uint64(i%64) * 0x9E3779B97F4A7C15, Val: 1, Time: int64(i)}
			}
			job := shuffleJob(func(dag.BatchInfo) []data.Record { return recs }, 1, reducers, combine)
			w, sc := bareWorker(t, job)
			batch := core.BatchID(0)
			counts = append(counts, allocsPerTask(t, w, sc, func() core.RunnableTask {
				batch++
				return core.RunnableTask{Desc: core.TaskDescriptor{Job: job.Name, ID: core.TaskID{Batch: batch, Stage: 0}}}
			}))
		}
		t.Logf("combine=%v: %v allocations per map task at 1k records, %v at 30k", combine, counts[0], counts[1])
		if counts[0] != counts[1] {
			t.Errorf("combine=%v: allocations per map task grow with the input: %v at 1k records, %v at 30k", combine, counts[0], counts[1])
		}
		if counts[1] > 4*reducers {
			t.Errorf("combine=%v: %v allocations per map task writing %d blocks", combine, counts[1], reducers)
		}
	}
}

// TestSourceTaskAllocationsIndependentOfRecords: a map task whose source
// renders events — Video.SourceFunc, parsed by ParseOp — allocates exactly
// what the same task allocates when its source hands out events rendered
// beforehand: after the slot's first task the source renders into the
// slot's scratch and contributes nothing, at 1 k events and at 30 k.
func TestSourceTaskAllocationsIndependentOfRecords(t *testing.T) {
	const reducers = 4
	for _, combine := range []bool{false, true} {
		var counts []float64
		for _, n := range []int{1_000, 30_000} {
			// 16 sessions: every batch meets every key, so the combine table
			// is sized by the first task like every other slot buffer.
			v := workload.NewVideo(workload.VideoConfig{
				Sessions: 16, EventsPerSecPerPartition: n * 1000, ZipfS: 1.2, WindowSize: time.Second, Seed: 3,
			})
			rendered := v.Gen(0, 0, int64(time.Millisecond))
			work := make([]data.Record, len(rendered))
			count := func(source dag.SourceFunc) float64 {
				job := shuffleJob(source, 1, reducers, combine)
				job.Stages[0].Ops = []dag.NarrowOp{v.ParseOp()}
				w, sc := bareWorker(t, job)
				batch := core.BatchID(-1)
				return allocsPerTask(t, w, sc, func() core.RunnableTask {
					batch++
					return core.RunnableTask{Desc: core.TaskDescriptor{Job: job.Name, ID: core.TaskID{Batch: batch, Stage: 0}}}
				})
			}
			// ParseOp writes its keyed records over its input, so the
			// prebuilt source hands out a fresh copy of the headers each time.
			prebuilt := count(func(dag.BatchInfo) []data.Record { copy(work, rendered); return work })
			source := count(v.SourceFunc())
			t.Logf("combine=%v, %d events: %v allocations per map task, %v with the events prebuilt", combine, n, source, prebuilt)
			if source != prebuilt {
				t.Errorf("combine=%v, %d events: the source adds %v allocations per map task", combine, n, source-prebuilt)
			}
			if source > 4*reducers {
				t.Errorf("combine=%v, %d events: %v allocations per map task writing %d blocks", combine, n, source, reducers)
			}
			counts = append(counts, source)
		}
		if counts[0] != counts[1] {
			t.Errorf("combine=%v: allocations per source task grow with the input: %v at 1k events, %v at 30k", combine, counts[0], counts[1])
		}
	}
}

// TestReduceTaskAllocationsIndependentOfRecords: a windowed reduce task
// folds its blocks where they lie. Once the window map holds the keys, its
// allocations are those of gathering the blocks — none per record.
func TestReduceTaskAllocationsIndependentOfRecords(t *testing.T) {
	const maps = 4
	var counts []float64
	for _, n := range []int{1_000, 30_000} {
		job := shuffleJob(nil, maps, 1, false)
		w, sc := bareWorker(t, job)
		// One window, an hour ahead of any batch's close time: it collects
		// every task's records and never closes.
		recs := make([]data.Record, n/maps)
		for i := range recs {
			recs[i] = data.Record{Key: uint64(i%64) * 0x9E3779B97F4A7C15, Val: 1, Time: int64(time.Hour) + int64(i)}
		}
		const tasks = 8
		for batch := int64(0); batch < tasks; batch++ {
			for m := 0; m < maps; m++ {
				w.store.Put(shuffle.BlockID{Job: job.Name, Batch: batch, Stage: 0, MapPartition: m}, recs)
			}
		}
		batch := core.BatchID(-1)
		counts = append(counts, allocsPerTask(t, w, sc, func() core.RunnableTask {
			batch++
			return reduceTask(w, job, batch, maps)
		}))
		key := checkpoint.StateKey{Job: job.Name, Stage: 1, Partition: 0}
		if at := w.states.AppliedThrough(key); at != 5 {
			t.Fatalf("tasks did not apply: applied through %d, want 5", at)
		}
	}
	t.Logf("%v allocations per reduce task at 1k records, %v at 30k", counts[0], counts[1])
	if counts[0] != counts[1] {
		t.Errorf("allocations per reduce task grow with the input: %v at 1k records, %v at 30k", counts[0], counts[1])
	}
	if counts[1] > 4*maps {
		t.Errorf("%v allocations per reduce task over %d blocks", counts[1], maps)
	}
}
