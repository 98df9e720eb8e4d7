package checkpoint

import (
	"reflect"
	"testing"
	"testing/quick"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Key:            StateKey{Job: "j", Stage: 1, Partition: 2},
		Batch:          17,
		EmittedThrough: 99,
		Windows: map[int64]map[uint64]int64{
			0:  {1: 10, 2: 20},
			10: {3: 30},
			20: {},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := DecodeSnapshot(s.Key, s.Encode())
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Batch != s.Batch || got.EmittedThrough != s.EmittedThrough {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Windows, s.Windows) {
		t.Fatalf("windows mismatch: %v != %v", got.Windows, s.Windows)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	s := sampleSnapshot()
	b := s.Encode()
	for _, cut := range []int{0, 5, 19, len(b) - 1} {
		if _, err := DecodeSnapshot(s.Key, b[:cut]); err == nil {
			t.Errorf("DecodeSnapshot accepted truncation at %d", cut)
		}
	}
	if _, err := DecodeSnapshot(s.Key, append(b, 0)); err == nil {
		t.Error("DecodeSnapshot accepted trailing bytes")
	}
}

// TestEncodeDecodeQuick property-tests the snapshot round trip over
// arbitrary window contents.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(batch int64, emitted int64, windows map[int64]map[uint64]int64) bool {
		if windows == nil {
			windows = map[int64]map[uint64]int64{}
		}
		for w, kv := range windows {
			if kv == nil {
				windows[w] = map[uint64]int64{}
			}
		}
		s := &Snapshot{Key: StateKey{Job: "q"}, Batch: batch, EmittedThrough: emitted, Windows: windows}
		got, err := DecodeSnapshot(s.Key, s.Encode())
		if err != nil {
			return false
		}
		return got.Batch == batch && got.EmittedThrough == emitted && reflect.DeepEqual(got.Windows, windows)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCloneIsolation(t *testing.T) {
	s := sampleSnapshot()
	c := s.Clone()
	c.Windows[0][1] = 999
	if s.Windows[0][1] != 10 {
		t.Fatal("Clone shares window maps")
	}
}

func testStore(t *testing.T, store StateBackend) {
	t.Helper()
	k := StateKey{Job: "j", Stage: 1, Partition: 2}
	if _, ok, err := store.Latest(k); ok || err != nil {
		t.Fatalf("Latest on empty store: ok=%v err=%v", ok, err)
	}
	s := sampleSnapshot()
	if err := store.Put(s); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := store.Latest(k)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if got.Batch != 17 || !reflect.DeepEqual(got.Windows, s.Windows) {
		t.Fatalf("Latest returned wrong snapshot: %+v", got)
	}
	// Newer snapshot replaces; older snapshot is ignored.
	newer := sampleSnapshot()
	newer.Batch = 20
	if err := store.Put(newer); err != nil {
		t.Fatal(err)
	}
	older := sampleSnapshot()
	older.Batch = 5
	if err := store.Put(older); err != nil {
		t.Fatal(err)
	}
	got, _, _ = store.Latest(k)
	if got.Batch != 20 {
		t.Fatalf("store regressed to batch %d", got.Batch)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, ok := store.DurableBatch(k); !ok || b != 20 {
		t.Fatalf("DurableBatch = (%d,%v), want (20,true)", b, ok)
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

func TestMemStoreIsolation(t *testing.T) {
	store := NewMemStore()
	s := sampleSnapshot()
	store.Put(s)
	s.Windows[0][1] = 777 // mutate after Put
	got, _, _ := store.Latest(s.Key)
	if got.Windows[0][1] != 10 {
		t.Fatal("MemStore shares state with caller")
	}
	got.Windows[0][1] = 888 // mutate returned copy
	again, _, _ := store.Latest(s.Key)
	if again.Windows[0][1] != 10 {
		t.Fatal("MemStore returns aliased snapshots")
	}
}
