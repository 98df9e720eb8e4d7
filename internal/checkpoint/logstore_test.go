package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"drizzle/internal/metrics"
)

func snapAt(k StateKey, batch int64, windows map[int64]map[uint64]int64, emitted int64) *Snapshot {
	return &Snapshot{Key: k, Batch: batch, Windows: windows, EmittedThrough: emitted}
}

func win(vals ...int64) map[uint64]int64 {
	m := make(map[uint64]int64, len(vals))
	for i, v := range vals {
		m[uint64(i+1)] = v
	}
	return m
}

func sameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Batch != want.Batch || got.EmittedThrough != want.EmittedThrough {
		t.Fatalf("snapshot header = (%d,%d), want (%d,%d)", got.Batch, got.EmittedThrough, want.Batch, want.EmittedThrough)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("windows = %v, want %v", got.Windows, want.Windows)
	}
	for w, kv := range want.Windows {
		gkv, ok := got.Windows[w]
		if !ok || len(gkv) != len(kv) {
			t.Fatalf("window %d = %v, want %v", w, gkv, kv)
		}
		for k, v := range kv {
			if gkv[k] != v {
				t.Fatalf("window %d key %d = %d, want %d", w, k, gkv[k], v)
			}
		}
	}
}

func TestLogStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k1 := StateKey{Job: "j", Stage: 1, Partition: 0}
	k2 := StateKey{Job: "j", Stage: 1, Partition: 1}
	// A sequence of puts per key: the first is full, later ones deltas.
	if err := s.Put(snapAt(k1, 0, map[int64]map[uint64]int64{100: win(1, 2)}, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(snapAt(k1, 3, map[int64]map[uint64]int64{100: win(4, 2), 200: win(9)}, 0)); err != nil {
		t.Fatal(err)
	}
	// Window 100 emitted and purged by batch 7.
	final1 := snapAt(k1, 7, map[int64]map[uint64]int64{200: win(9, 5)}, 200)
	if err := s.Put(final1); err != nil {
		t.Fatal(err)
	}
	final2 := snapAt(k2, 7, map[int64]map[uint64]int64{100: win(0, 0, 3)}, 0)
	if err := s.Put(final2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FullRecords != 2 || st.DeltaRecords != 2 {
		t.Fatalf("stats = %+v, want 2 full + 2 delta", st)
	}

	// Before Sync nothing is promised durable; after, everything is.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, ok := s.DurableBatch(k1); !ok || b != 7 {
		t.Fatalf("DurableBatch(k1) = (%d,%v), want (7,true)", b, ok)
	}

	got, ok, err := s.Latest(k1)
	if err != nil || !ok {
		t.Fatalf("Latest = %v %v", ok, err)
	}
	sameSnapshot(t, got, final1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart: reopen and replay full + delta chain.
	s2, err := OpenLogStore(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Corrupt != 0 {
		t.Fatalf("clean replay counted corrupt: %+v", s2.Stats())
	}
	got, ok, _ = s2.Latest(k1)
	if !ok {
		t.Fatal("k1 lost across restart")
	}
	sameSnapshot(t, got, final1)
	got, ok, _ = s2.Latest(k2)
	if !ok {
		t.Fatal("k2 lost across restart")
	}
	sameSnapshot(t, got, final2)
	if b, ok := s2.DurableBatch(k1); !ok || b != 7 {
		t.Fatalf("replayed DurableBatch = (%d,%v), want (7,true)", b, ok)
	}
}

func TestLogStoreNeverRegress(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	if err := s.Put(snapAt(k, 5, map[int64]map[uint64]int64{100: win(7)}, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(snapAt(k, 2, map[int64]map[uint64]int64{100: win(1)}, 0)); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Latest(k)
	if got.Batch != 5 || got.Windows[100][1] != 7 {
		t.Fatalf("older Put regressed the store: %+v", got)
	}
}

func TestLogStoreFullEvery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir, LogOptions{FullEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	for i := int64(0); i < 8; i++ {
		if err := s.Put(snapAt(k, i, map[int64]map[uint64]int64{100: win(i)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// 8 puts with FullEvery=3: full at 0, deltas 1-3, full at 4, deltas 5-7.
	if st.FullRecords != 2 || st.DeltaRecords != 6 {
		t.Fatalf("stats = %+v, want 2 full + 6 delta", st)
	}
}

func TestLogStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLogStore(dir, LogOptions{SegmentBytes: 256, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	for i := int64(0); i < 20; i++ {
		if err := s.Put(snapAt(k, i, map[int64]map[uint64]int64{100 * i: win(i, i)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil { // CompactBytes=1 forces compaction here
		t.Fatal(err)
	}
	if got := s.Stats().Compactions; got < 1 {
		t.Fatalf("Compactions = %d, want >= 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("segments after compaction = %d, want 1", len(entries))
	}
	want, _, _ := s.Latest(k)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenLogStore(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, _ := s2.Latest(k)
	if !ok {
		t.Fatal("state lost by compaction")
	}
	sameSnapshot(t, got, want)
}

// TestLogStoreCorruption bit-flips and truncates segment files on disk and
// asserts replay degrades gracefully: torn tails truncated, CRC-bad
// records skipped and counted, broken delta chains dropped to "no
// snapshot" rather than a wrong window.
func TestLogStoreCorruption(t *testing.T) {
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenLogStore(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(snapAt(k, 0, map[int64]map[uint64]int64{100: win(1)}, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(snapAt(k, 1, map[int64]map[uint64]int64{100: win(2)}, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(snapAt(k, 2, map[int64]map[uint64]int64{100: win(3)}, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	segPath := func(t *testing.T, dir string) string {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("want one segment, got %v (%v)", entries, err)
		}
		return filepath.Join(dir, entries[0].Name())
	}

	t.Run("torn tail loses only the last record", func(t *testing.T) {
		dir := build(t)
		p := segPath(t, dir)
		b, _ := os.ReadFile(p)
		os.WriteFile(p, b[:len(b)-3], 0o644)
		s, err := OpenLogStore(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, ok, _ := s.Latest(k)
		if !ok || got.Batch != 1 || got.Windows[100][1] != 2 {
			t.Fatalf("after torn tail: ok=%v snap=%+v, want batch 1", ok, got)
		}
	})

	t.Run("bit flip mid-chain drops the key", func(t *testing.T) {
		dir := build(t)
		p := segPath(t, dir)
		b, _ := os.ReadFile(p)
		// Flip a bit in the middle third: hits record 2 (a delta), breaking
		// the chain for record 3.
		b[len(b)/2] ^= 0x08
		os.WriteFile(p, b, 0o644)
		s, err := OpenLogStore(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Stats().Corrupt == 0 {
			t.Fatal("corruption not counted")
		}
		// Either the key fell back to the last full record (batch 0) or was
		// dropped entirely — never a wrong later window.
		if got, ok, _ := s.Latest(k); ok && got.Batch != 0 {
			t.Fatalf("corrupt chain surfaced batch %d", got.Batch)
		}
	})

	t.Run("corrupt metric instrumented", func(t *testing.T) {
		dir := build(t)
		p := segPath(t, dir)
		b, _ := os.ReadFile(p)
		b[len(b)/2] ^= 0x08
		os.WriteFile(p, b, 0o644)
		s, err := OpenLogStore(dir, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reg := metrics.NewRegistry()
		s.Instrument(reg)
		if got := reg.Snapshot().CounterValue("drizzle_driver_ckpt_corrupt_total"); got == 0 {
			t.Fatal("drizzle_driver_ckpt_corrupt_total not seeded from replay")
		}
	})
}

// TestBackendInterfaces pins the one store interface: the in-memory and
// the durable backend both implement all of it.
func TestBackendInterfaces(t *testing.T) {
	var _ StateBackend = NewMemStore()
	var _ StateBackend = &LogStore{}
}
