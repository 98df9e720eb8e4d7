package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame builds one on-disk record frame for hand-built corruption cases.
func frame(payload []byte) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(b, crc[:]...)
}

func openCollect(t *testing.T, dir string, opts Options) (*Log, ReplayStats, [][]byte) {
	t.Helper()
	var got [][]byte
	l, stats, err := Open(dir, opts, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, stats, got
}

func TestAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	l, stats, _ := openCollect(t, dir, Options{})
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("fresh dir stats = %+v", stats)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		seq, err := l.Append(append([]byte(nil), p...))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := l.SyncedSeq(); got != 100 {
		t.Fatalf("SyncedSeq = %d, want 100", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, stats, got := openCollect(t, dir, Options{})
	defer l2.Close()
	if stats.Records != 100 || stats.Corrupt != 0 || stats.TornBytes != 0 {
		t.Fatalf("replay stats = %+v", stats)
	}
	for i, p := range got {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, p, want[i])
		}
	}
	// Appends continue the sequence after recovery.
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 101 {
		t.Fatalf("post-replay Append = (%d, %v), want (101, nil)", seq, err)
	}
}

func TestRotationAndDropSealed(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d-xxxxxxxx", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	segs := countSegments(t, dir)
	if segs < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", segs)
	}
	// Compaction shape: rotate, rewrite the live tail, sync, drop sealed.
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if _, err := l.Append([]byte("live-state")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.DropSealed(); err != nil {
		t.Fatalf("DropSealed: %v", err)
	}
	if got := countSegments(t, dir); got != 1 {
		t.Fatalf("segments after DropSealed = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, stats, got := openCollect(t, dir, Options{})
	defer l2.Close()
	if stats.Records != 1 || !bytes.Equal(got[0], []byte("live-state")) {
		t.Fatalf("post-compaction replay = %+v %q", stats, got)
	}
}

func TestReplayCorruption(t *testing.T) {
	full := append(append(frame([]byte("one")), frame([]byte("two"))...), frame([]byte("three"))...)
	oneTwo := append(frame([]byte("one")), frame([]byte("two"))...)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		records []string
		corrupt int
		torn    bool
	}{
		{
			name:    "clean",
			mutate:  func(b []byte) []byte { return b },
			records: []string{"one", "two", "three"},
		},
		{
			name:    "torn tail mid-frame",
			mutate:  func(b []byte) []byte { return b[:len(b)-3] },
			records: []string{"one", "two"},
			torn:    true,
		},
		{
			name:    "torn tail one byte of length",
			mutate:  func(b []byte) []byte { return append(b, 0x20) },
			records: []string{"one", "two", "three"},
			torn:    true,
		},
		{
			name: "bit flip in middle record payload",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[len(frame([]byte("one")))+2] ^= 0x40
				return c
			},
			records: []string{"one", "three"},
			corrupt: 1,
		},
		{
			name: "bit flip in final record crc",
			mutate: func(b []byte) []byte {
				c := append([]byte(nil), b...)
				c[len(c)-1] ^= 0x01
				return c
			},
			records: []string{"one", "two"},
			corrupt: 1,
			torn:    true,
		},
		{
			name:    "truncated to partial first frame",
			mutate:  func(b []byte) []byte { return b[:2] },
			records: nil,
			torn:    true,
		},
		{
			name:    "empty file",
			mutate:  func(b []byte) []byte { return nil },
			records: nil,
		},
		{
			name: "garbage length prefix",
			mutate: func(b []byte) []byte {
				return append(append([]byte(nil), oneTwo...), 0xff, 0xff, 0xff, 0xff, 0xff)
			},
			records: []string{"one", "two"},
			torn:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, tc.mutate(full), 0o644); err != nil {
				t.Fatal(err)
			}
			l, stats, got := openCollect(t, dir, Options{})
			if len(got) != len(tc.records) {
				t.Fatalf("replayed %d records, want %d (%q)", len(got), len(tc.records), got)
			}
			for i, want := range tc.records {
				if string(got[i]) != want {
					t.Fatalf("record %d = %q, want %q", i, got[i], want)
				}
			}
			if stats.Corrupt != tc.corrupt {
				t.Fatalf("Corrupt = %d, want %d", stats.Corrupt, tc.corrupt)
			}
			if (stats.TornBytes > 0) != tc.torn {
				t.Fatalf("TornBytes = %d, torn expectation %v", stats.TornBytes, tc.torn)
			}
			// The log must be appendable after any repair, and a reopen must
			// be clean: truncation happened, so nothing is torn twice.
			if _, err := l.Append([]byte("post-repair")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2, stats2, got2 := openCollect(t, dir, Options{})
			defer l2.Close()
			if stats2.TornBytes != 0 {
				t.Fatalf("second open still torn: %+v", stats2)
			}
			if want := len(tc.records) + 1; len(got2) != want {
				t.Fatalf("second replay %d records, want %d", len(got2), want)
			}
			if string(got2[len(got2)-1]) != "post-repair" {
				t.Fatalf("last record = %q", got2[len(got2)-1])
			}
		})
	}
}

func TestCorruptionInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	// Sealed segment with a bad record between good ones, then a clean
	// active segment: the bad record is skipped and counted, never torn.
	sealed := append(append(frame([]byte("a")), frame([]byte("bad"))...), frame([]byte("c"))...)
	sealed[len(frame([]byte("a")))+1] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, segName(1)), sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), frame([]byte("d")), 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, got := openCollect(t, dir, Options{})
	defer l.Close()
	if stats.Corrupt != 1 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt, 0 torn", stats)
	}
	if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "c" || string(got[2]) != "d" {
		t.Fatalf("records = %q", got)
	}
}

func TestSyncBarrierDurability(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, Options{})
	seq, err := l.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.SyncedSeq() < seq {
		t.Fatalf("SyncedSeq %d < appended seq %d after Sync", l.SyncedSeq(), seq)
	}
	// The record must be on disk now even without Close (simulated crash:
	// reopen the directory without closing the old log).
	var n int
	_, stats, err := Open(dir+"-copy", Options{}, nil)
	_ = stats
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("durable")) {
		t.Fatalf("synced record not on disk (%d bytes)", len(b))
	}
	_ = n
	l.Close()
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollect(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// TestRemovedOptionValues pins the append queue bound, once the
// Options.QueueLen field, to the default it had then.
func TestRemovedOptionValues(t *testing.T) {
	if queueLen != 1024 {
		t.Errorf("QueueLen = %d, want 1024", queueLen)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if segIndex(e.Name()) >= 0 {
			n++
		}
	}
	return n
}
