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

// OutputID names one map output: the blocks map task MapPartition of
// (Job, Batch, Stage) wrote, one per reduce partition.
type OutputID struct {
	Job          string
	Batch        int64
	Stage        int
	MapPartition int
}

// Output returns the map output the block belongs to.
func (id BlockID) Output() OutputID {
	return OutputID{Job: id.Job, Batch: id.Batch, Stage: id.Stage, MapPartition: id.MapPartition}
}

// Store is a worker-local, in-memory block store. The real system writes
// map outputs to local disk; in-memory blocks preserve the architectural
// property that matters (blocks survive task completion, are served to
// remote fetchers, and die with the machine) while keeping experiments
// repeatable.
//
// The store keeps one entry per map output: its blocks, indexed by reduce
// partition. A nil slot is a block not held here. A zero-length, non-nil
// slot is a block held here that holds no record: an empty block is never
// encoded, and costs the store no bytes.
type Store struct {
	mu      sync.RWMutex
	outputs map[OutputID][][]byte
	blocks  int // non-nil slots
	bytes   int64

	gBlocks *metrics.Gauge
	gBytes  *metrics.Gauge
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{outputs: make(map[OutputID][][]byte)}
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
	s.gBlocks.Set(float64(s.blocks))
	s.gBytes.Set(float64(s.bytes))
}

// Put encodes recs as one block (see BlockWriter.Block) and stores it
// under id, returning the stored size. Re-putting a block (recovery re-runs
// a map task) overwrites it. Unlike the engine's writer, Put encodes an
// empty recs too: it stores the empty batch's encoding, which reads back as
// no records, as a zero-length block does. Put is the store's whole write
// path in one call; the benchmark's replay times it step by step, as
// data.EncodeBatchColumnar and data.CompressBatch, and checks that the
// steps produce the bytes Put stores.
func (s *Store) Put(id BlockID, recs []data.Record) int {
	b := data.EncodeBatchColumnar(nil, nil)
	if len(recs) > 0 {
		b = NewBlockWriter().Block(recs, nil)
	}
	s.PutRaw(id, b)
	return len(b)
}

// BlockWriter encodes map output block by block, reusing its encoder's key
// dictionary, its encode and compress buffers and its combine table from
// one block to the next: the only memory a block leaves behind is the block
// itself, at its exact size. An executor slot owns one for its lifetime; it
// is not safe for concurrent use.
//
// Nothing passed to a BlockWriter is retained: recs and idx are read during
// the call only, and every block it returns is a copy.
type BlockWriter struct {
	keys  data.Encoder // key dictionary and time column scratch behind enc
	enc   []byte       // encoding of the block being written
	comp  []byte       // its compressed envelope
	table AggTable
	agg   []data.Record // the table's drained output, reused per block
}

// NewBlockWriter returns a writer with empty buffers.
func NewBlockWriter() *BlockWriter { return &BlockWriter{} }

// selected is the number of records idx selects from recs: all of them
// when idx is nil.
func selected(recs []data.Record, idx []uint32) int {
	if idx == nil {
		return len(recs)
	}
	return len(idx)
}

// Block encodes the records recs[idx[0]], recs[idx[1]], ... — every record,
// in order, when idx is nil — as one block, and returns it in the form the
// store keeps: a copy at its exact size, which the caller owns. idx is
// typically one partition of a data.PartitionIndex over the map task's whole
// output, which is then never copied apart. An empty selection encodes
// nothing and returns a zero-length block without allocating.
//
// A block whose keys took the dictionary form is stored plain, whatever its
// size: the dictionary already found the repeats snappy would look for. A
// raw-key block is compressed from SmallBlock up, if that shrinks it.
func (w *BlockWriter) Block(recs []data.Record, idx []uint32) []byte {
	if selected(recs, idx) == 0 {
		return []byte{}
	}
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
	return append(make([]byte, 0, len(block)), block...)
}

// CombinedBlock partially aggregates the selected records by (key, time
// bucket) with f, as Combine does, and returns the aggregates as one block,
// as Block does.
func (w *BlockWriter) CombinedBlock(recs []data.Record, idx []uint32, f dag.ReduceFunc, bucket TimeBucket) []byte {
	if selected(recs, idx) == 0 {
		return []byte{}
	}
	w.table.Fold(recs, idx, f, bucket)
	w.agg = w.table.Drain(w.agg[:0])
	return w.Block(w.agg, nil)
}

// PutRaw stores pre-encoded bytes under id; nil stores an empty block, as
// zero-length bytes do (a zero-length block decodes off the wire as nil).
// id.ReducePartition must not be negative.
func (s *Store) PutRaw(id BlockID, b []byte) {
	if b == nil {
		b = []byte{}
	}
	s.mu.Lock()
	s.setLocked(s.entryLocked(id.Output(), id.ReducePartition+1), id.ReducePartition, b)
	s.gaugesLocked()
	s.mu.Unlock()
}

// PutOutput stores blocks of map output o under one lock and one lookup:
// blocks[r], when not nil, is reduce partition r's block, zero-length for
// an empty one; a nil blocks[r] leaves partition r as it is. The store
// keeps the block bytes, never blocks itself, which the caller may reuse.
func (s *Store) PutOutput(o OutputID, blocks [][]byte) {
	s.mu.Lock()
	e := s.entryLocked(o, len(blocks))
	for r, b := range blocks {
		if b != nil {
			s.setLocked(e, r, b)
		}
	}
	s.gaugesLocked()
	s.mu.Unlock()
}

// entryLocked returns output o's entry, grown to at least n slots; callers
// hold mu. An entry is sized once, by the first put of its output, unless a
// later put names a partition past its end.
func (s *Store) entryLocked(o OutputID, n int) [][]byte {
	e := s.outputs[o]
	if len(e) < n {
		e = append(e, make([][]byte, n-len(e))...)
		s.outputs[o] = e
	}
	return e
}

// setLocked stores b in slot r of entry e, accounting for the block it
// replaces; callers hold mu.
func (s *Store) setLocked(e [][]byte, r int, b []byte) {
	if old := e[r]; old != nil {
		s.blocks--
		s.bytes -= int64(len(old))
	}
	e[r] = b
	s.blocks++
	s.bytes += int64(len(b))
}

// GetRaw returns the encoded bytes of a block; an empty block is held and
// has none.
func (s *Store) GetRaw(id BlockID) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.outputs[id.Output()]
	if r := id.ReducePartition; r >= 0 && r < len(e) && e[r] != nil {
		return e[r], true
	}
	return nil, false
}

// PurgeBefore drops all blocks of micro-batches older than batch
// (exclusive) and returns the number of bytes freed. The driver piggybacks
// purge watermarks on LaunchTasks so shuffle data from completed groups is
// garbage collected.
func (s *Store) PurgeBefore(batch int64) int64 {
	return s.purge(func(o OutputID) bool { return o.Batch < batch })
}

// PurgeJob drops every block belonging to the named job, used when a new
// run of the job is submitted to this worker.
func (s *Store) PurgeJob(job string) int64 {
	return s.purge(func(o OutputID) bool { return o.Job == job })
}

func (s *Store) purge(drop func(OutputID) bool) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var freed int64
	for o, e := range s.outputs {
		if !drop(o) {
			continue
		}
		for _, b := range e {
			if b != nil {
				s.blocks--
				freed += int64(len(b))
			}
		}
		delete(s.outputs, o)
	}
	s.bytes -= freed
	s.gaugesLocked()
	return freed
}

// Stats reports the blocks held, empty ones included, and their total
// bytes.
func (s *Store) Stats() (blocks int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks, s.bytes
}
