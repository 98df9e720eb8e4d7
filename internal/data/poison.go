//go:build poisonscratch

package data

// PoisonedRecord is what a record reads as after its owner took the memory
// back (see engine/poison_on.go).
var PoisonedRecord = Record{Key: ^uint64(0), Val: -1 << 62, Time: -1 << 62}

// Scribble overwrites both buffers, to their full capacity, with poison:
// anything that kept a source record or payload past its task reads garbage
// instead of the next batch's events.
func (s *SourceScratch) Scribble() {
	recs := s.recs[:cap(s.recs)]
	for i := range recs {
		recs[i] = PoisonedRecord
	}
	b := s.bytes[:cap(s.bytes)]
	for i := range b {
		b[i] = 0xDB
	}
}

// Scribble overwrites the index with out-of-range positions. Ownership
// tests call it when a task ends: anything still reading a Part afterwards
// fails loudly instead of reading the next task's positions.
func (x *PartitionIndex) Scribble() {
	for _, s := range [][]uint32{x.perm[:cap(x.perm)], x.parts[:cap(x.parts)]} {
		for i := range s {
			s[i] = ^uint32(0)
		}
	}
}
