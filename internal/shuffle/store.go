// Package shuffle implements the data plane between stages: a worker-local
// block store for map outputs, the map-side combiner (§3.5's
// within-a-batch optimization), and the fetch protocol that pre-scheduling
// (§3.2) relies on — upstream tasks notify downstream workers that blocks
// exist, carrying the bytes of the small ones (below SmallBlock) in the
// notification, and downstream tasks pull the large ones when they activate.
package shuffle

import (
	"sync"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/metrics"
)

// BlockID names one map-output block: the records map task MapPartition of
// (Job, Batch, Stage) produced for reduce partition ReducePartition. The
// job name is part of the identity because batch numbering restarts per
// run; without it a later run could read a predecessor's blocks.
type BlockID struct {
	Job             string
	Batch           int64
	Stage           int
	MapPartition    int
	ReducePartition int
}

// Store is a worker-local, in-memory block store. The real system writes
// map outputs to local disk; in-memory blocks preserve the architectural
// property that matters (blocks survive task completion, are served to
// remote fetchers, and die with the machine) while keeping experiments
// repeatable.
type Store struct {
	mu     sync.RWMutex
	blocks map[BlockID][]byte
	bytes  int64

	gBlocks *metrics.Gauge
	gBytes  *metrics.Gauge
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{blocks: make(map[BlockID][]byte)}
	s.InstrumentMetrics(nil, "")
	return s
}

// InstrumentMetrics points the store's occupancy gauges
// (drizzle_worker_shuffle_blocks / _bytes, labeled by worker) at reg. Call
// before the store is shared between goroutines; a nil registry keeps the
// gauges live but unexported.
func (s *Store) InstrumentMetrics(reg *metrics.Registry, worker string) {
	s.gBlocks = reg.Gauge("drizzle_worker_shuffle_blocks", "worker", worker)
	s.gBytes = reg.Gauge("drizzle_worker_shuffle_bytes", "worker", worker)
}

// gaugesLocked refreshes the occupancy gauges; callers hold mu.
func (s *Store) gaugesLocked() {
	s.gBlocks.Set(float64(len(s.blocks)))
	s.gBytes.Set(float64(s.bytes))
}

// Put encodes recs (block format v2; snappy-compressed from SmallBlock up
// unless the keys took the dictionary form) and stores them under id,
// returning the stored size. Re-putting a block (recovery re-runs a map
// task) overwrites it. The stored bytes are what remote fetchers receive
// verbatim: encoding — and compression — happens exactly once, here, never
// on the serving path.
// Callers that write block after block keep a BlockWriter instead, which
// reuses its buffers.
func (s *Store) Put(id BlockID, recs []data.Record) int {
	return NewBlockWriter(s).Put(id, recs, nil)
}

// BlockWriter writes map output into a Store block by block, reusing its
// encoder's key dictionary, its encode and compress buffers and its combine
// table from one block to the next: the only memory a Put leaves behind is
// the stored block itself, at its exact size. An executor slot owns one for its lifetime; it is not safe
// for concurrent use.
//
// Nothing passed to a BlockWriter is retained: recs and idx are read during
// the call only, and the stored block is a copy.
type BlockWriter struct {
	store *Store
	keys  data.Encoder // key dictionary and time column scratch behind enc
	enc   []byte       // encoding of the block being written
	comp  []byte       // its compressed envelope
	table AggTable
	agg   []data.Record // the table's drained output, reused per block
}

// NewBlockWriter returns a writer storing into s.
func NewBlockWriter(s *Store) *BlockWriter { return &BlockWriter{store: s} }

// Put encodes the records recs[idx[0]], recs[idx[1]], ... — every record, in
// order, when idx is nil — as one block stored under id, and returns the
// stored size. idx is typically one partition of a data.PartitionIndex over
// the map task's whole output, which is then never copied apart.
//
// A block whose keys took the dictionary form is stored plain, whatever its
// size: the dictionary already found the repeats snappy would look for. A
// raw-key block is compressed from SmallBlock up, if that shrinks it.
func (w *BlockWriter) Put(id BlockID, recs []data.Record, idx []uint32) int {
	var dict bool
	w.enc, dict = w.keys.AppendColumnar(w.enc[:0], recs, idx)
	w.scribbleKeys()
	block := w.enc
	if !dict && len(block) >= SmallBlock {
		var ok bool
		if w.comp, ok = data.AppendCompressed(w.comp[:0], block); ok {
			block = w.comp
		}
	}
	w.store.PutRaw(id, append(make([]byte, 0, len(block)), block...))
	return len(block)
}

// PutCombined partially aggregates the selected records by (key, time
// bucket) with f, as Combine does, and stores the aggregates as one block.
func (w *BlockWriter) PutCombined(id BlockID, recs []data.Record, idx []uint32, f dag.ReduceFunc, bucket TimeBucket) int {
	w.table.Fold(recs, idx, f, bucket)
	w.agg = w.table.Drain(w.agg[:0])
	return w.Put(id, w.agg, nil)
}

// PutRaw stores pre-encoded bytes under id.
func (s *Store) PutRaw(id BlockID, b []byte) {
	s.mu.Lock()
	if old, ok := s.blocks[id]; ok {
		s.bytes -= int64(len(old))
	}
	s.blocks[id] = b
	s.bytes += int64(len(b))
	s.gaugesLocked()
	s.mu.Unlock()
}

// GetRaw returns the encoded bytes of a block.
func (s *Store) GetRaw(id BlockID) ([]byte, bool) {
	s.mu.RLock()
	b, ok := s.blocks[id]
	s.mu.RUnlock()
	return b, ok
}

// PurgeBefore drops all blocks of micro-batches older than batch
// (exclusive) and returns the number of bytes freed. The driver piggybacks
// purge watermarks on LaunchTasks so shuffle data from completed groups is
// garbage collected.
func (s *Store) PurgeBefore(batch int64) int64 {
	return s.purge(func(id BlockID) bool { return id.Batch < batch })
}

// PurgeJob drops every block belonging to the named job, used when a new
// run of the job is submitted to this worker.
func (s *Store) PurgeJob(job string) int64 {
	return s.purge(func(id BlockID) bool { return id.Job == job })
}

func (s *Store) purge(drop func(BlockID) bool) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var freed int64
	for id, b := range s.blocks {
		if drop(id) {
			freed += int64(len(b))
			delete(s.blocks, id)
		}
	}
	s.bytes -= freed
	s.gaugesLocked()
	return freed
}

// Stats reports the block count and total bytes held.
func (s *Store) Stats() (blocks int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks), s.bytes
}
