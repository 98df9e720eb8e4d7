package shuffle

// Kept oracle: the block store as it was before it kept one entry per map
// output, one map entry per block, copied verbatim (only renamed, and its
// gauges left out). TestStoreMatchesReference and FuzzStoreOps run the same
// operations against it and against Store and compare every result. The one
// intended difference: a nil put reads back from Store as a held,
// zero-length, non-nil block, where the reference hands back the nil it was
// given. Both say the block is held and has no bytes.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

type refStore struct {
	mu     sync.RWMutex
	blocks map[BlockID][]byte
	bytes  int64
}

func newRefStore() *refStore {
	return &refStore{blocks: make(map[BlockID][]byte)}
}

// PutRaw stores pre-encoded bytes under id.
func (s *refStore) PutRaw(id BlockID, b []byte) {
	s.mu.Lock()
	if old, ok := s.blocks[id]; ok {
		s.bytes -= int64(len(old))
	}
	s.blocks[id] = b
	s.bytes += int64(len(b))
	s.mu.Unlock()
}

// GetRaw returns the encoded bytes of a block.
func (s *refStore) GetRaw(id BlockID) ([]byte, bool) {
	s.mu.RLock()
	b, ok := s.blocks[id]
	s.mu.RUnlock()
	return b, ok
}

// PurgeBefore drops all blocks of micro-batches older than batch
// (exclusive) and returns the number of bytes freed.
func (s *refStore) PurgeBefore(batch int64) int64 {
	return s.purge(func(id BlockID) bool { return id.Batch < batch })
}

// PurgeJob drops every block belonging to the named job.
func (s *refStore) PurgeJob(job string) int64 {
	return s.purge(func(id BlockID) bool { return id.Job == job })
}

func (s *refStore) purge(drop func(BlockID) bool) int64 {
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
	return freed
}

// Stats reports the block count and total bytes held.
func (s *refStore) Stats() (blocks int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks), s.bytes
}

// storeOps reads a byte string as a sequence of store operations; a read
// past the end yields 0, so every string is a valid program.
type storeOps struct {
	b []byte
	i int
}

func (o *storeOps) next(n int) int {
	if o.i >= len(o.b) {
		o.i++
		return 0
	}
	v := int(o.b[o.i]) % n
	o.i++
	return v
}

func (o *storeOps) output() OutputID {
	return OutputID{Job: []string{"a", "b"}[o.next(2)], Batch: int64(o.next(6)), Stage: o.next(2), MapPartition: o.next(3)}
}

// block is nil, zero-length, or 1 to 16 bytes that name the operation that
// stored them.
func (o *storeOps) block() []byte {
	switch n := o.next(18); n {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		return bytes.Repeat([]byte{byte(o.i)}, n-1)
	}
}

// runStoreOps runs the operations ops encodes against Store and the
// reference, failing on the first result they disagree on.
func runStoreOps(t *testing.T, ops []byte) {
	t.Helper()
	s, ref := NewStore(), newRefStore()
	for o := (&storeOps{b: ops}); o.i < len(o.b); {
		switch o.next(5) {
		case 0: // PutRaw, of nil, zero-length or some bytes; a re-put overwrites
			out := o.output()
			id := BlockID{Job: out.Job, Batch: out.Batch, Stage: out.Stage, MapPartition: out.MapPartition, ReducePartition: o.next(5)}
			b := o.block()
			s.PutRaw(id, b)
			ref.PutRaw(id, b)
		case 1: // PutOutput: the reference puts the non-nil blocks one by one
			out := o.output()
			blocks := make([][]byte, 1+o.next(5))
			for r := range blocks {
				blocks[r] = o.block()
			}
			s.PutOutput(out, blocks)
			for r, b := range blocks {
				if b != nil {
					ref.PutRaw(BlockID{Job: out.Job, Batch: out.Batch, Stage: out.Stage, MapPartition: out.MapPartition, ReducePartition: r}, b)
				}
			}
		case 2: // GetRaw, over a wider partition range than any put uses
			out := o.output()
			id := BlockID{Job: out.Job, Batch: out.Batch, Stage: out.Stage, MapPartition: out.MapPartition, ReducePartition: o.next(8) - 1}
			got, ok := s.GetRaw(id)
			want, wantOK := ref.GetRaw(id)
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("op %d: GetRaw(%+v) = %v, %v; reference %v, %v", o.i, id, got, ok, want, wantOK)
			}
			if ok && got == nil {
				t.Fatalf("op %d: GetRaw(%+v) of a held block returned nil", o.i, id)
			}
		case 3:
			batch := int64(o.next(7))
			if got, want := s.PurgeBefore(batch), ref.PurgeBefore(batch); got != want {
				t.Fatalf("op %d: PurgeBefore(%d) freed %d bytes; reference %d", o.i, batch, got, want)
			}
		case 4:
			job := []string{"a", "b", "c"}[o.next(3)]
			if got, want := s.PurgeJob(job), ref.PurgeJob(job); got != want {
				t.Fatalf("op %d: PurgeJob(%q) freed %d bytes; reference %d", o.i, job, got, want)
			}
		}
		n, b := s.Stats()
		wantN, wantB := ref.Stats()
		if n != wantN || b != wantB {
			t.Fatalf("op %d: Stats = %d blocks, %d bytes; reference %d, %d", o.i, n, b, wantN, wantB)
		}
		if g := s.gBlocks.Value(); g != float64(n) {
			t.Fatalf("op %d: blocks gauge reads %v, Stats %d", o.i, g, n)
		}
		if g := s.gBytes.Value(); g != float64(b) {
			t.Fatalf("op %d: bytes gauge reads %v, Stats %d", o.i, g, b)
		}
	}
}

// TestStoreMatchesReference runs random operation sequences against Store
// and the kept per-block store.
func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 50+rng.Intn(2000))
		rng.Read(ops)
		runStoreOps(t, ops)
	}
}

func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	// Puts of nil, zero-length and non-empty blocks, one by one and as an
	// output, reads, a re-put and both purges.
	f.Add([]byte{
		0, 0, 1, 0, 1, 2, 0,
		0, 0, 1, 0, 1, 3, 1,
		0, 0, 1, 0, 1, 4, 9,
		1, 1, 2, 1, 2, 4, 0, 1, 5, 17, 0,
		2, 0, 1, 0, 1, 3, 2, 0, 1, 0, 1, 0, 2, 1, 2, 1, 2, 4,
		0, 1, 2, 1, 2, 3, 1,
		3, 2, 4, 1,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runStoreOps(t, ops)
	})
}
