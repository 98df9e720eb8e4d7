package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the segment replay path as the final
// (active) segment. Recovery must never fail or panic on any input: it
// replays the valid prefix, truncates the torn tail, and a second open of
// the repaired directory must be clean and agree on the record set.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame([]byte("hello")))
	f.Add(append(frame([]byte("a")), frame([]byte("bb"))...))
	f.Add(frame(nil))
	f.Add([]byte{0x03, 'a', 'b'})                     // torn mid-frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // huge length
	bad := frame([]byte("xyz"))
	bad[len(bad)-1] ^= 0x01
	f.Add(bad) // bad CRC at tail
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		var first [][]byte
		l, stats, err := Open(dir, Options{}, func(p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("Open failed on arbitrary input: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		var second [][]byte
		l2, stats2, err := Open(dir, Options{}, func(p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("second Open failed after repair: %v", err)
		}
		defer l2.Close()
		if stats2.TornBytes != 0 {
			t.Fatalf("tail still torn after repair: first=%+v second=%+v", stats, stats2)
		}
		if len(second) != len(first) {
			t.Fatalf("replay not idempotent: %d then %d records", len(first), len(second))
		}
		for i := range first {
			if string(first[i]) != string(second[i]) {
				t.Fatalf("record %d differs across opens", i)
			}
		}
	})
}
