package checkpoint

import (
	"testing"
)

// FuzzApplyRecord drives the LogStore record decoder (the payload layer
// above the WAL's CRC framing) with arbitrary bytes: it must never panic
// and must count anything undecodable instead of corrupting the mirror.
func FuzzApplyRecord(f *testing.F) {
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	f.Add(encodeFull(snapAt(k, 3, map[int64]map[uint64]int64{100: {1: 2}}, 0)))
	f.Add(encodeDelta(snapAt(k, 4, map[int64]map[uint64]int64{100: {1: 3}}, 0), 3,
		map[int64]map[uint64]int64{100: {1: 3}}, []int64{50}))
	f.Add([]byte{})
	f.Add([]byte{recFull})
	f.Add([]byte{recDelta, 0x01, 'j'})
	f.Add([]byte{0x77, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &LogStore{
			data:  make(map[StateKey]*Snapshot),
			delta: make(map[StateKey]int),
			pend:  make(map[StateKey]pendingPut),
			dur:   make(map[StateKey]int64),
		}
		s.applyRecord(data, make(map[StateKey]bool))
		// Whatever survived must round-trip through the full encoder.
		s2 := &LogStore{data: make(map[StateKey]*Snapshot)}
		for _, snap := range s.data {
			s2.applyRecord(encodeFull(snap), make(map[StateKey]bool))
		}
		if s2.stats.Corrupt != 0 || len(s2.data) != len(s.data) {
			t.Fatalf("accepted state does not re-encode: corrupt=%d n=%d/%d",
				s2.stats.Corrupt, len(s2.data), len(s.data))
		}
	})
}

// FuzzDecodeSnapshot covers the fixed-width snapshot codec that
// CheckpointData and RestoreState carry.
func FuzzDecodeSnapshot(f *testing.F) {
	k := StateKey{Job: "j", Stage: 1, Partition: 0}
	f.Add(snapAt(k, 3, map[int64]map[uint64]int64{100: {1: 2}, 200: {7: 9}}, 100).Encode())
	f.Add([]byte{})
	f.Add(make([]byte, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(k, data)
		if err != nil {
			return
		}
		got, err := DecodeSnapshot(k, s.Encode())
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if got.Batch != s.Batch || len(got.Windows) != len(s.Windows) {
			t.Fatal("snapshot round-trip mismatch")
		}
	})
}
