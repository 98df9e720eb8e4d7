// Package checkpoint implements the fault-tolerance substrate of §3.3:
// synchronous snapshots of terminal-stage (windowed) state, taken at group
// boundaries, plus the stores they live in. The driver keeps checkpoints in
// a store that survives worker death (the stand-in for HDFS/S3 in the real
// system); recovery restores the latest snapshot of a moved partition and
// replays the micro-batches since, in parallel, reusing surviving map
// outputs via lineage.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// StateKey identifies one terminal-stage state partition of a job.
type StateKey struct {
	Job       string
	Stage     int
	Partition int
}

// Snapshot is one partition's checkpointed state.
type Snapshot struct {
	Key StateKey
	// Batch is the last micro-batch whose effects the state includes; the
	// snapshot is consistent with the prefix of the stream up to Batch
	// (prefix integrity, §2.1).
	Batch int64
	// Windows holds the aggregation state: window start -> key -> value.
	Windows map[int64]map[uint64]int64
	// EmittedThrough is the window-end watermark already emitted to the
	// sink before the snapshot was taken.
	EmittedThrough int64
}

// Clone deep-copies the snapshot so stored state is immune to later
// mutation by the state store it was taken from.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Key: s.Key, Batch: s.Batch, EmittedThrough: s.EmittedThrough}
	c.Windows = make(map[int64]map[uint64]int64, len(s.Windows))
	for w, kv := range s.Windows {
		m := make(map[uint64]int64, len(kv))
		for k, v := range kv {
			m[k] = v
		}
		c.Windows[w] = m
	}
	return c
}

var errCorrupt = errors.New("checkpoint: corrupt snapshot")

// Encode serializes the snapshot's dynamic part (batch, watermark,
// windows); the key travels in the enclosing message.
func (s *Snapshot) Encode() []byte {
	n := 8 + 8 + 4
	for _, kv := range s.Windows {
		n += 8 + 4 + 16*len(kv)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Batch))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.EmittedThrough))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Windows)))
	for w, kv := range s.Windows {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(kv)))
		for k, v := range kv {
			b = binary.LittleEndian.AppendUint64(b, k)
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// DecodeSnapshot parses bytes produced by Encode into a snapshot with the
// given key.
func DecodeSnapshot(key StateKey, b []byte) (*Snapshot, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: %d bytes", errCorrupt, len(b))
	}
	s := &Snapshot{Key: key, Windows: make(map[int64]map[uint64]int64)}
	s.Batch = int64(binary.LittleEndian.Uint64(b))
	s.EmittedThrough = int64(binary.LittleEndian.Uint64(b[8:]))
	nw := int(binary.LittleEndian.Uint32(b[16:]))
	off := 20
	for i := 0; i < nw; i++ {
		if len(b)-off < 12 {
			return nil, fmt.Errorf("%w: truncated window header", errCorrupt)
		}
		w := int64(binary.LittleEndian.Uint64(b[off:]))
		nk := int(binary.LittleEndian.Uint32(b[off+8:]))
		off += 12
		if nk < 0 || len(b)-off < 16*nk {
			return nil, fmt.Errorf("%w: truncated window body", errCorrupt)
		}
		kv := make(map[uint64]int64, nk)
		for j := 0; j < nk; j++ {
			k := binary.LittleEndian.Uint64(b[off:])
			v := int64(binary.LittleEndian.Uint64(b[off+8:]))
			kv[k] = v
			off += 16
		}
		s.Windows[w] = kv
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(b)-off)
	}
	return s, nil
}

// StateBackend is the checkpoint store the driver barriers against.
// MemStore keeps snapshots in driver memory; LogStore makes them durable.
type StateBackend interface {
	// Put stores a snapshot; a snapshot older than the stored one for its
	// key is ignored.
	Put(s *Snapshot) error
	// Latest returns the most recent snapshot for a key (highest Batch).
	Latest(k StateKey) (*Snapshot, bool, error)
	// DurableBatch reports the newest batch for a key whose snapshot has
	// reached stable storage. The driver's purge watermark uses it so
	// lineage is only discarded once the covering snapshot would survive a
	// crash.
	DurableBatch(k StateKey) (int64, bool)
	// Sync blocks until every snapshot accepted by Put so far is durable.
	Sync() error
	Close() error
}

// MemStore is the driver-resident StateBackend used by the in-process
// experiments.
type MemStore struct {
	mu   sync.Mutex
	data map[StateKey]*Snapshot
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[StateKey]*Snapshot)}
}

// Put implements StateBackend, keeping only the newest snapshot per key.
func (m *MemStore) Put(s *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.data[s.Key]; ok && old.Batch > s.Batch {
		return nil // never regress
	}
	m.data[s.Key] = s.Clone()
	return nil
}

// Latest implements StateBackend.
func (m *MemStore) Latest(k StateKey) (*Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.data[k]
	if !ok {
		return nil, false, nil
	}
	return s.Clone(), true, nil
}

// DurableBatch implements StateBackend. Memory has no stable storage to
// wait for, so a stored snapshot counts as soon as Put returns: this is the
// latest batch.
func (m *MemStore) DurableBatch(k StateKey) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.data[k]
	if !ok {
		return 0, false
	}
	return s.Batch, true
}

// Sync implements StateBackend; memory has no durability.
func (m *MemStore) Sync() error { return nil }

// Close implements StateBackend.
func (m *MemStore) Close() error { return nil }
