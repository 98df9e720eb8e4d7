package engine

import (
	"slices"
	"sync"

	"drizzle/internal/checkpoint"
	"drizzle/internal/core"
	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/shuffle"
)

// StateStore holds a worker's terminal-stage window state, one partition
// per (job, stage, partition). Partitions are independent and individually
// locked: with group scheduling, reduce tasks of *different* micro-batches
// for the same partition can run concurrently on different executor slots,
// and the store serializes their state updates.
//
// Window results are emitted using a contiguous-batch watermark: a window
// is final only once every micro-batch up to the one covering the window's
// end has been applied, regardless of the order tasks completed in. That is
// what makes out-of-order execution inside a group — and parallel replay
// across micro-batches during recovery (§3.3) — safe for windowed
// aggregation.
type StateStore struct {
	mu    sync.Mutex
	parts map[checkpoint.StateKey]*statePartition
}

type statePartition struct {
	mu             sync.Mutex
	windows        map[int64]map[uint64]int64
	applied        map[core.BatchID]bool
	appliedThrough core.BatchID
	emittedThrough int64
}

// NewStateStore returns an empty store.
func NewStateStore() *StateStore {
	return &StateStore{parts: make(map[checkpoint.StateKey]*statePartition)}
}

func (s *StateStore) partition(key checkpoint.StateKey) *statePartition {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.parts[key]
	if !ok {
		p = &statePartition{
			windows:        make(map[int64]map[uint64]int64),
			applied:        make(map[core.BatchID]bool),
			appliedThrough: -1,
			emittedThrough: 0,
		}
		s.parts[key] = p
	}
	return p
}

// ApplyBatch folds one micro-batch of records into the partition's window
// state and returns the window results that became final, plus whether the
// batch was a duplicate (already applied — replay or a re-executed task).
// closeNanos maps a batch ID to its wall-clock close time. recs is only read.
func (s *StateStore) ApplyBatch(
	key checkpoint.StateKey,
	batch core.BatchID,
	recs []data.Record,
	reduce dag.ReduceFunc,
	window dag.WindowSpec,
	closeNanos func(core.BatchID) int64,
) (emitted []data.Record, dup bool) {
	return s.apply(key, batch, window, closeNanos, func(f *windowFolder) {
		for i := range recs {
			f.add(recs[i].Key, recs[i].Val, recs[i].Time, reduce)
		}
	})
}

// ApplyBlocks is ApplyBatch for a micro-batch that is still encoded: the
// shuffle blocks of one reduce task, opened (and so validated — a corrupt
// block never gets this far) but not decoded. The records are read straight
// off the encoded columns; no []data.Record ever exists. They are first
// aggregated per (key, window) in agg — the calling slot's table, reused
// from task to task (nil takes a fresh one) — before the partition is even
// locked, so the window state sees each group of the task once instead of
// each record; ReduceFunc's contract (commutative, associative) makes that
// the same fold. The blocks are only read, and only during the call: they
// may alias scratch the caller reuses as soon as ApplyBlocks returns. The
// emitted records are freshly allocated.
func (s *StateStore) ApplyBlocks(
	key checkpoint.StateKey,
	batch core.BatchID,
	blocks []data.Batch,
	reduce dag.ReduceFunc,
	window dag.WindowSpec,
	closeNanos func(core.BatchID) int64,
	agg *shuffle.AggTable,
) (emitted []data.Record, dup bool) {
	if agg == nil {
		agg = new(shuffle.AggTable)
	}
	defer agg.Reset()
	// Records arrive in event-time runs, so the window of the last one is
	// kept: [lo, hi), empty at first and whenever the arithmetic wraps.
	var it data.BatchIter
	var lo, hi int64
	for i := range blocks {
		for it = blocks[i].Iter(); it.Next(); {
			if it.Time < lo || it.Time >= hi {
				lo = window.Assign(it.Time)
				hi = lo + int64(window.Size)
			}
			agg.Add(it.Key, lo, it.Val, reduce)
		}
	}
	return s.apply(key, batch, window, closeNanos, func(f *windowFolder) {
		var w0 int64
		var kv map[uint64]int64
		agg.Each(func(k uint64, w, v int64) {
			if kv == nil || w != w0 {
				w0, kv = w, f.in(w)
			}
			merge(kv, k, v, reduce)
		})
	})
}

// windowFolder folds records into a partition's window maps. Records of a
// micro-batch arrive in event-time runs, so it keeps the window it last
// resolved — bounds and inner map — and pays the window arithmetic and the
// outer-map lookup once per run instead of once per record.
type windowFolder struct {
	windows map[int64]map[uint64]int64
	window  dag.WindowSpec
	// [lo, hi) is the cached window. It is empty before the first record,
	// and again whenever the arithmetic wraps at either end of int64 (then
	// hi < lo), so such records simply resolve their window every time.
	lo, hi int64
	kv     map[uint64]int64
}

// add folds one record into the window its event time t falls in.
func (f *windowFolder) add(key uint64, val, t int64, reduce dag.ReduceFunc) {
	if t < f.lo || t >= f.hi {
		f.lo = f.window.Assign(t)
		f.hi = f.lo + int64(f.window.Size)
		f.kv = f.in(f.lo)
	}
	merge(f.kv, key, val, reduce)
}

// in returns the map of the window starting at w, creating it if need be.
func (f *windowFolder) in(w int64) map[uint64]int64 {
	kv, ok := f.windows[w]
	if !ok {
		kv = make(map[uint64]int64)
		f.windows[w] = kv
	}
	return kv
}

func merge(kv map[uint64]int64, key uint64, val int64, reduce dag.ReduceFunc) {
	if v, ok := kv[key]; ok {
		kv[key] = reduce(v, val)
	} else {
		kv[key] = val
	}
}

// apply is the one implementation behind ApplyBatch and ApplyBlocks: dedup,
// fold (the caller's loop over its representation of the batch), advance
// the contiguous-batch watermark and emit the windows it closed.
func (s *StateStore) apply(
	key checkpoint.StateKey,
	batch core.BatchID,
	window dag.WindowSpec,
	closeNanos func(core.BatchID) int64,
	fold func(*windowFolder),
) (emitted []data.Record, dup bool) {
	p := s.partition(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.applied[batch] || batch <= p.appliedThrough {
		return nil, true
	}
	fold(&windowFolder{windows: p.windows, window: window})
	p.applied[batch] = true
	for p.applied[p.appliedThrough+1] {
		delete(p.applied, p.appliedThrough+1)
		p.appliedThrough++
	}
	if p.appliedThrough < batch {
		return nil, false // a gap remains; nothing can be emitted yet
	}
	watermark := closeNanos(p.appliedThrough)
	size := int64(window.Size)
	for w, kv := range p.windows {
		end := w + size
		if end <= watermark && end > p.emittedThrough {
			emitted = slices.Grow(emitted, len(kv))
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

// Snapshot captures the partition's state if it has applied every batch up
// to and including upTo. It returns ok=false when the partition lags (the
// driver checkpoints at group barriers, so lag means the request is stale).
func (s *StateStore) Snapshot(key checkpoint.StateKey, upTo core.BatchID) (*checkpoint.Snapshot, bool) {
	s.mu.Lock()
	p, exists := s.parts[key]
	s.mu.Unlock()
	if !exists {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.appliedThrough < upTo {
		return nil, false
	}
	snap := &checkpoint.Snapshot{
		Key:            key,
		Batch:          int64(p.appliedThrough),
		EmittedThrough: p.emittedThrough,
		Windows:        make(map[int64]map[uint64]int64, len(p.windows)),
	}
	for w, kv := range p.windows {
		m := make(map[uint64]int64, len(kv))
		for k, v := range kv {
			m[k] = v
		}
		snap.Windows[w] = m
	}
	return snap, true
}

// Restore replaces the partition's state with a snapshot; batches after
// snap.Batch will be replayed on top of it. It reports whether the snapshot
// was applied: a restore is refused when the partition has already applied
// a batch beyond the snapshot, because replacing the state would silently
// erase that batch's contribution (stale or duplicated RestoreState
// messages on a lossy network hit exactly this case). Batches at or below
// the snapshot are covered by the snapshot itself, so overwriting them is
// safe.
func (s *StateStore) Restore(snap *checkpoint.Snapshot) bool {
	p := s.partition(snap.Key)
	p.mu.Lock()
	defer p.mu.Unlock()
	max := p.appliedThrough
	for b := range p.applied {
		if b > max {
			max = b
		}
	}
	if max > core.BatchID(snap.Batch) {
		return false
	}
	c := snap.Clone()
	p.windows = c.Windows
	p.applied = make(map[core.BatchID]bool)
	p.appliedThrough = core.BatchID(snap.Batch)
	p.emittedThrough = snap.EmittedThrough
	return true
}

// Keys lists the state partitions currently held, for checkpointing.
func (s *StateStore) Keys() []checkpoint.StateKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]checkpoint.StateKey, 0, len(s.parts))
	for k := range s.parts {
		out = append(out, k)
	}
	return out
}

// Retain drops partitions the predicate rejects, used when placement moves
// a partition away from this worker.
func (s *StateStore) Retain(keep func(checkpoint.StateKey) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.parts {
		if !keep(k) {
			delete(s.parts, k)
		}
	}
}

// AppliedThrough reports the partition's contiguous-batch watermark, or -1
// if the partition does not exist.
func (s *StateStore) AppliedThrough(key checkpoint.StateKey) core.BatchID {
	s.mu.Lock()
	p, ok := s.parts[key]
	s.mu.Unlock()
	if !ok {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appliedThrough
}
