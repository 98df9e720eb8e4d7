package bench

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/engine"
	"drizzle/internal/shuffle"
)

// BenchmarkShufflePath drives one micro-batch through the data plane the way
// an executor slot does, without the cluster around it: every map task
// indexes its output by reducer and writes one block per reducer through a
// reused BlockWriter, then every reduce task opens its blocks and folds them
// into window state. One op of path is one micro-batch (mapParts map tasks
// and reduceParts reduce tasks); ns/record and B/record divide by the
// records that entered the map side, so the two shapes compare directly, and
// stored-B/record is what the block store holds for them.
//
// The other sub-benchmarks time one kernel of the path each, over the same
// batch's blocks, per record that kernel handles: encode (an Encoder's
// AppendColumnar through the index, key dictionary included; it also
// reports what the store would hold for those blocks, per record that
// entered the map side, as path does), compress (the snappy envelope of
// the blocks the store compresses: raw-key blocks from SmallBlock up; left
// out when there are none), validate (OpenBatch of the plain blocks),
// iterate (BatchIter over them), fold (ApplyBlocks into window state that
// never closes) and, for the combining shape, combine (the AggTable fold
// and drain).
//
//   - sessions: pre-keyed Zipf records, no combine — every record is
//     encoded, stored, fetched and folded (the sessions-groupby benchmark
//     workload). Its keys repeat, so its blocks take dictionary keys and
//     are stored plain: it has no compress row.
//   - yahoo: few keys and map-side combine — blocks are a few dozen
//     aggregates (the yahoo-combine workload after its parse/filter/join).
func BenchmarkShufflePath(b *testing.B) {
	const (
		mapParts    = 4
		reduceParts = 4
		interval    = 100 * time.Millisecond
		epoch       = int64(1_700_000_100) * int64(time.Second)
	)
	for _, shape := range []struct {
		name    string
		perTask int
		keys    int
		zipf    float64
		combine bool
		window  time.Duration
	}{
		{name: "sessions", perTask: 29_000, keys: 50_000, zipf: 1.2, window: 3 * interval},
		{name: "yahoo", perTask: 6_600, keys: 100, zipf: 0, combine: true, window: 2 * interval},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]uint64, shape.keys)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			pick := func() uint64 { return keys[rng.Intn(len(keys))] }
			if shape.zipf > 0 {
				z := rand.NewZipf(rng, shape.zipf, 1, uint64(len(keys)-1))
				pick = func() uint64 { return keys[z.Uint64()] }
			}
			// One batch worth of map output, re-timed per batch below.
			inputs := make([][]data.Record, mapParts)
			for m := range inputs {
				inputs[m] = make([]data.Record, shape.perTask)
				for i := range inputs[m] {
					inputs[m][i] = data.Record{Key: pick(), Val: 1}
				}
			}
			retime := func(bt int64) {
				start := epoch + bt*int64(interval)
				for _, recs := range inputs {
					for i := range recs {
						recs[i].Time = start + int64(i)*int64(interval)/int64(len(recs))
					}
				}
			}
			win := dag.WindowSpec{Size: shape.window}
			bucket := shuffle.WindowBucket(win)
			part := data.NewHashPartitioner(reduceParts)
			records := float64(mapParts * shape.perTask)

			b.Run("path", func(b *testing.B) {
				var (
					store      = shuffle.NewStore()
					states     = engine.NewStateStore()
					closeNanos = func(bt core.BatchID) int64 { return epoch + int64(bt+1)*int64(interval) }
					// One slot's worth of scratch, as in the engine.
					index   data.PartitionIndex
					writer  = shuffle.NewBlockWriter()
					out     = make([][]byte, reduceParts)
					inflate []byte
					batches []data.Batch
					agg     shuffle.AggTable
				)
				blockID := func(bt int64, m, r int) shuffle.BlockID {
					return shuffle.BlockID{Job: "bench", Batch: bt, MapPartition: m, ReducePartition: r}
				}
				var stored int64 // by the last batch
				batch := func(bt int64) {
					retime(bt)
					stored = 0
					for m, recs := range inputs {
						index.Build(recs, part)
						for r := 0; r < reduceParts; r++ {
							if shape.combine {
								out[r] = writer.CombinedBlock(recs, index.Part(r), dag.Sum, bucket)
							} else {
								out[r] = writer.Block(recs, index.Part(r))
							}
							stored += int64(len(out[r]))
						}
						store.PutOutput(blockID(bt, m, 0).Output(), out)
					}
					for r := 0; r < reduceParts; r++ {
						inflate, batches = inflate[:0], batches[:0]
						for m := 0; m < mapParts; m++ {
							raw, _ := store.GetRaw(blockID(bt, m, r))
							if len(raw) == 0 {
								continue // an empty block, never opened
							}
							blk, err := data.OpenBatch(raw, &inflate)
							if err != nil {
								b.Fatal(err)
							}
							batches = append(batches, blk)
						}
						key := checkpoint.StateKey{Job: "bench", Stage: 1, Partition: r}
						states.ApplyBlocks(key, core.BatchID(bt), batches, dag.Sum, win, closeNanos, &agg)
					}
					store.PurgeBefore(bt)
				}
				for bt := int64(0); bt < 6; bt++ { // fill the window maps and the scratch
					batch(bt)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch(6 + int64(i))
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				total := float64(b.N) * records
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/record")
				b.ReportMetric(float64(stored)/records, "stored-B/record")
			})

			// The kernels' input: batch 0's blocks, each reducer's share of each
			// map task (combined first for the combining shape), plain and
			// compressed, and opened.
			retime(0)
			type block struct {
				recs  []data.Record
				idx   []uint32
				plain []byte
				dict  bool // keys took the dictionary form
			}
			var blocks, compressed []block
			var table shuffle.AggTable
			var index data.PartitionIndex
			var encoder data.Encoder
			byReducer := make([][]data.Batch, reduceParts)
			blockRecords, compressedBytes, storedBytes := 0, 0, 0
			for _, recs := range inputs {
				index.Build(recs, part)
				for r := 0; r < reduceParts; r++ {
					blk := block{recs: recs, idx: append([]uint32(nil), index.Part(r)...)}
					if shape.combine {
						table.Fold(recs, blk.idx, dag.Sum, bucket)
						blk.recs, blk.idx = table.Drain(nil), nil
					}
					blk.plain, blk.dict = encoder.AppendColumnar(nil, blk.recs, blk.idx)
					opened, err := data.OpenBatch(blk.plain, nil)
					if err != nil {
						b.Fatal(err)
					}
					blocks = append(blocks, blk)
					byReducer[r] = append(byReducer[r], opened)
					blockRecords += opened.Len()
					// The store rule of shuffle.BlockWriter.Block.
					stored := len(blk.plain)
					if !blk.dict && stored >= shuffle.SmallBlock {
						compressed = append(compressed, blk)
						compressedBytes += stored
						if env, ok := data.AppendCompressed(nil, blk.plain); ok {
							stored = len(env)
						}
					}
					storedBytes += stored
				}
			}
			kernel := func(name string, per, bytes int, op func(), report ...func(*testing.B)) {
				b.Run(name, func(b *testing.B) {
					op() // size the scratch
					b.SetBytes(int64(bytes))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(per)), "ns/record")
					for _, f := range report {
						f(b)
					}
				})
			}
			if shape.combine {
				var out []data.Record
				kernel("combine", int(records), 0, func() {
					for _, recs := range inputs {
						index.Build(recs, part)
						for r := 0; r < reduceParts; r++ {
							table.Fold(recs, index.Part(r), dag.Sum, bucket)
							out = table.Drain(out[:0])
						}
					}
				})
			}
			var enc, comp []byte
			kernel("encode", blockRecords, 0, func() {
				for _, blk := range blocks {
					enc, _ = encoder.AppendColumnar(enc[:0], blk.recs, blk.idx)
				}
			}, func(b *testing.B) {
				b.ReportMetric(float64(storedBytes)/records, "stored-B/record")
			})
			if len(compressed) > 0 {
				kernel("compress", blockRecords, compressedBytes, func() {
					for _, blk := range compressed {
						comp, _ = data.AppendCompressed(comp[:0], blk.plain)
					}
				})
			}
			kernel("validate", blockRecords, 0, func() {
				for _, blk := range blocks {
					if _, err := data.OpenBatch(blk.plain, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			var sink uint64
			kernel("iterate", blockRecords, 0, func() {
				for _, batches := range byReducer {
					for i := range batches {
						for it := batches[i].Iter(); it.Next(); {
							sink += it.Key ^ uint64(it.Time)
						}
					}
				}
			})
			states := engine.NewStateStore()
			never := func(core.BatchID) int64 { return 0 } // no window ever closes
			bt := core.BatchID(0)
			kernel("fold", blockRecords, 0, func() {
				for r, batches := range byReducer {
					key := checkpoint.StateKey{Job: "bench", Stage: 1, Partition: r}
					states.ApplyBlocks(key, bt, batches, dag.Sum, win, never, &table)
				}
				bt++
			})
		})
	}
}
