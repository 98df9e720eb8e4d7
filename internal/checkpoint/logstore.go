package checkpoint

import (
	"fmt"
	"sync"

	"drizzle/internal/metrics"
	"drizzle/internal/wal"
	"drizzle/internal/wire"
)

const compressThreshold = 4 << 10

// Record kinds in a LogStore segment.
const (
	recFull  = 1 // complete snapshot: batch, watermark, all windows
	recDelta = 2 // windows dirtied since the base batch + removed windows
)

// LogOptions tunes a LogStore.
type LogOptions struct {
	// SegmentBytes caps a segment before rotation (wal.Options default).
	SegmentBytes int64
	// FullEvery bounds the delta chain: after this many consecutive delta
	// records for a key, the next Put writes a full snapshot. Default 16.
	FullEvery int
	// CompactBytes triggers compaction once this many record bytes have
	// been appended since the last compaction. Default 8 MiB.
	CompactBytes int64
}

func (o LogOptions) withDefaults() LogOptions {
	if o.FullEvery <= 0 {
		o.FullEvery = 16
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 8 << 20
	}
	return o
}

// LogStoreStats counts what the store has done since open; the experiment
// harness reads it to compare incremental and full checkpoint volume.
type LogStoreStats struct {
	FullRecords  int64
	DeltaRecords int64
	FullBytes    int64
	DeltaBytes   int64
	Compactions  int64
	Corrupt      int64 // records skipped during replay or rejected at read
}

type pendingPut struct {
	batch int64
	seq   uint64
}

// LogStore is the log-structured durable StateBackend: snapshots are
// appended to a wal.Log as framed records — full snapshots interleaved
// with incremental deltas carrying only the windows dirtied since the
// previous record for that key. Recovery replays the log, tolerating a
// torn tail (truncated) and CRC-bad records (skipped and counted); a
// broken delta chain invalidates the key until its next full record.
// Compaction rotates the log, rewrites one full snapshot per live key, and
// drops sealed segments.
type LogStore struct {
	mu    sync.Mutex
	log   *wal.Log
	opts  LogOptions
	data  map[StateKey]*Snapshot // mirror of the log's logical content
	delta map[StateKey]int       // consecutive delta records since last full
	pend  map[StateKey]pendingPut
	dur   map[StateKey]int64 // newest batch known fsynced per key
	since int64              // bytes appended since last compaction
	stats LogStoreStats

	corrupt *metrics.Counter // optional, set by Instrument
}

// OpenLogStore opens (creating if needed) the log-structured backend in
// dir and replays it. Corrupt records found during replay are counted in
// Stats and do not fail the open.
func OpenLogStore(dir string, opts LogOptions) (*LogStore, error) {
	opts = opts.withDefaults()
	s := &LogStore{
		opts:  opts,
		data:  make(map[StateKey]*Snapshot),
		delta: make(map[StateKey]int),
		pend:  make(map[StateKey]pendingPut),
		dur:   make(map[StateKey]int64),
	}
	broken := make(map[StateKey]bool)
	l, rs, err := wal.Open(dir, wal.Options{SegmentBytes: opts.SegmentBytes}, func(p []byte) error {
		s.applyRecord(p, broken)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.log = l
	s.stats.Corrupt += int64(rs.Corrupt)
	// Everything that survived replay is on disk by definition.
	for k, snap := range s.data {
		s.dur[k] = snap.Batch
	}
	return s, nil
}

// Instrument registers the corrupt-record counter on r and seeds it with
// corruption already seen during replay.
func (s *LogStore) Instrument(r *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.corrupt = r.Counter("drizzle_driver_ckpt_corrupt_total")
	s.corrupt.Add(s.stats.Corrupt)
}

func (s *LogStore) noteCorrupt(n int64) {
	s.stats.Corrupt += n
	if s.corrupt != nil {
		s.corrupt.Add(n)
	}
}

// applyRecord folds one replayed record into the mirror. Undecodable
// records and delta records whose base does not match the mirror are
// counted corrupt; the latter poison the key until its next full record.
func (s *LogStore) applyRecord(p []byte, broken map[StateKey]bool) {
	if len(p) < 1 {
		s.noteCorrupt(1)
		return
	}
	kind := p[0]
	r := wire.NewReader(p[1:])
	key := StateKey{Job: r.String(), Stage: int(r.Varint()), Partition: int(r.Varint())}
	batch := r.Varint()
	emitted := r.Varint()
	switch kind {
	case recFull:
		body := r.Compressed()
		if r.Done() != nil {
			s.noteCorrupt(1)
			return
		}
		w, err := decodeWindows(body)
		if err != nil {
			s.noteCorrupt(1)
			return
		}
		if old, ok := s.data[key]; ok && old.Batch > batch {
			return // never regress
		}
		s.data[key] = &Snapshot{Key: key, Batch: batch, EmittedThrough: emitted, Windows: w}
		delete(broken, key)
	case recDelta:
		base := r.Varint()
		body := r.Compressed()
		if r.Done() != nil {
			s.noteCorrupt(1)
			return
		}
		if broken[key] {
			return // already poisoned; wait for next full record
		}
		prev, ok := s.data[key]
		if !ok || prev.Batch != base {
			// A delta whose base we don't hold (its predecessor was
			// skipped as corrupt): the chain is broken, the mirrored state
			// can no longer be trusted forward. Drop the key so recovery
			// falls back to replay-from-scratch rather than a wrong window.
			s.noteCorrupt(1)
			delete(s.data, key)
			broken[key] = true
			return
		}
		dirty, removed, err := decodeDelta(body)
		if err != nil {
			s.noteCorrupt(1)
			delete(s.data, key)
			broken[key] = true
			return
		}
		next := prev // mutate in place: mirror owns it
		next.Batch = batch
		next.EmittedThrough = emitted
		for w, kv := range dirty {
			next.Windows[w] = kv
		}
		for _, w := range removed {
			delete(next.Windows, w)
		}
	default:
		s.noteCorrupt(1)
	}
}

// Put implements StateBackend: appends a full or delta record. The write is
// asynchronous; call Sync to make it durable, DurableBatch to ask.
func (s *LogStore) Put(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.data[snap.Key]
	if ok && prev.Batch > snap.Batch {
		return nil // never regress
	}
	// Fold the superseded pending write into the durable floor first if it
	// already made it to disk.
	if p, ok := s.pend[snap.Key]; ok && p.seq <= s.log.SyncedSeq() {
		s.dur[snap.Key] = p.batch
	}

	clone := snap.Clone()
	var rec []byte
	if ok && s.delta[snap.Key] < s.opts.FullEvery {
		dirty, removed := diffWindows(prev.Windows, clone.Windows)
		rec = encodeDelta(clone, prev.Batch, dirty, removed)
		s.delta[snap.Key]++
		s.stats.DeltaRecords++
		s.stats.DeltaBytes += int64(len(rec))
	} else {
		rec = encodeFull(clone)
		s.delta[snap.Key] = 0
		s.stats.FullRecords++
		s.stats.FullBytes += int64(len(rec))
	}
	seq, err := s.log.Append(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: wal append: %w", err)
	}
	s.data[snap.Key] = clone
	s.pend[snap.Key] = pendingPut{batch: clone.Batch, seq: seq}
	s.since += int64(len(rec))
	return nil
}

// Latest implements StateBackend from the in-memory mirror.
func (s *LogStore) Latest(k StateKey) (*Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.data[k]
	if !ok {
		return nil, false, nil
	}
	return snap.Clone(), true, nil
}

// Sync implements StateBackend: fsyncs every accepted snapshot, advances
// the per-key durable floors, and runs compaction when enough bytes have
// accumulated. This is the call the driver's barrier waits on.
func (s *LogStore) Sync() error {
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	synced := s.log.SyncedSeq()
	for k, p := range s.pend {
		if p.seq <= synced {
			s.dur[k] = p.batch
			delete(s.pend, k)
		}
	}
	compact := s.since >= s.opts.CompactBytes
	s.mu.Unlock()
	if compact {
		return s.Compact()
	}
	return nil
}

// DurableBatch implements StateBackend.
func (s *LogStore) DurableBatch(k StateKey) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pend[k]; ok && p.seq <= s.log.SyncedSeq() {
		s.dur[k] = p.batch
		delete(s.pend, k)
	}
	b, ok := s.dur[k]
	return b, ok
}

// Compact rewrites the live state as one full snapshot per key in a fresh
// segment, syncs, and drops every sealed segment.
func (s *LogStore) Compact() error {
	s.mu.Lock()
	if err := s.log.Rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	for _, snap := range s.data {
		rec := encodeFull(snap)
		seq, err := s.log.Append(rec)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("checkpoint: compact append: %w", err)
		}
		s.pend[snap.Key] = pendingPut{batch: snap.Batch, seq: seq}
		s.delta[snap.Key] = 0
		s.stats.FullRecords++
		s.stats.FullBytes += int64(len(rec))
	}
	s.since = 0
	s.stats.Compactions++
	s.mu.Unlock()
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	synced := s.log.SyncedSeq()
	for k, p := range s.pend {
		if p.seq <= synced {
			s.dur[k] = p.batch
			delete(s.pend, k)
		}
	}
	s.mu.Unlock()
	return s.log.DropSealed()
}

// Stats returns a copy of the store's counters.
func (s *LogStore) Stats() LogStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements StateBackend, flushing and closing the log.
func (s *LogStore) Close() error { return s.log.Close() }

// --- record encoding ---

func encodeHeader(kind byte, snap *Snapshot) []byte {
	b := []byte{kind}
	b = wire.AppendString(b, snap.Key.Job)
	b = wire.AppendVarint(b, int64(snap.Key.Stage))
	b = wire.AppendVarint(b, int64(snap.Key.Partition))
	b = wire.AppendVarint(b, snap.Batch)
	b = wire.AppendVarint(b, snap.EmittedThrough)
	return b
}

func encodeFull(snap *Snapshot) []byte {
	b := encodeHeader(recFull, snap)
	return wire.AppendCompressed(b, appendWindows(nil, snap.Windows), compressThreshold)
}

func encodeDelta(snap *Snapshot, base int64, dirty map[int64]map[uint64]int64, removed []int64) []byte {
	b := encodeHeader(recDelta, snap)
	b = wire.AppendVarint(b, base)
	body := appendWindows(nil, dirty)
	body = wire.AppendUvarint(body, uint64(len(removed)))
	for _, w := range removed {
		body = wire.AppendVarint(body, w)
	}
	return wire.AppendCompressed(b, body, compressThreshold)
}

func appendWindows(dst []byte, windows map[int64]map[uint64]int64) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(windows)))
	for w, kv := range windows {
		dst = wire.AppendVarint(dst, w)
		dst = wire.AppendUvarint(dst, uint64(len(kv)))
		for k, v := range kv {
			dst = wire.AppendUvarint(dst, k)
			dst = wire.AppendVarint(dst, v)
		}
	}
	return dst
}

func readWindows(r *wire.Reader) map[int64]map[uint64]int64 {
	nw := r.Count(2)
	windows := make(map[int64]map[uint64]int64, nw)
	for i := 0; i < nw; i++ {
		w := r.Varint()
		nk := r.Count(2)
		kv := make(map[uint64]int64, nk)
		for j := 0; j < nk; j++ {
			k := r.Uvarint()
			kv[k] = r.Varint()
		}
		windows[w] = kv
	}
	return windows
}

func decodeWindows(b []byte) (map[int64]map[uint64]int64, error) {
	r := wire.NewReader(b)
	w := readWindows(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return w, nil
}

func decodeDelta(b []byte) (map[int64]map[uint64]int64, []int64, error) {
	r := wire.NewReader(b)
	dirty := readWindows(r)
	n := r.Count(1)
	removed := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		removed = append(removed, r.Varint())
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return dirty, removed, nil
}

// diffWindows computes the incremental record body: windows in next that
// differ from prev (dirty, sent whole — windows are small) and windows in
// prev that next no longer holds (removed, i.e. emitted and purged).
func diffWindows(prev, next map[int64]map[uint64]int64) (map[int64]map[uint64]int64, []int64) {
	dirty := make(map[int64]map[uint64]int64)
	for w, nkv := range next {
		pkv, ok := prev[w]
		if !ok || !sameWindow(pkv, nkv) {
			dirty[w] = nkv
		}
	}
	var removed []int64
	for w := range prev {
		if _, ok := next[w]; !ok {
			removed = append(removed, w)
		}
	}
	return dirty, removed
}

func sameWindow(a, b map[uint64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
