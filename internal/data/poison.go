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

// Scribble overwrites the encoder's scratch, to its full capacity: the key
// table with entries that point past the dictionary, the dictionary, the
// indices and the time column with garbage. An encoding that read any of
// it before writing it would come out wrong or panic.
func (e *Encoder) Scribble() {
	for _, s := range [][]uint32{e.slots[:cap(e.slots)], e.ids[:cap(e.ids)]} {
		for i := range s {
			s[i] = ^uint32(0)
		}
	}
	dict := e.dict[:cap(e.dict)]
	for i := range dict {
		dict[i] = PoisonedRecord.Key
	}
	times := e.times[:cap(e.times)]
	for i := range times {
		times[i] = 0xDB
	}
}

// Poisoned reports whether the encoder's scratch holds anything and all of
// it reads as Scribble left it.
func (e *Encoder) Poisoned() bool {
	if cap(e.slots) == 0 || cap(e.dict) == 0 || cap(e.times) == 0 {
		return false
	}
	for _, s := range [][]uint32{e.slots[:cap(e.slots)], e.ids[:cap(e.ids)]} {
		for _, v := range s {
			if v != ^uint32(0) {
				return false
			}
		}
	}
	for _, k := range e.dict[:cap(e.dict)] {
		if k != PoisonedRecord.Key {
			return false
		}
	}
	for _, b := range e.times[:cap(e.times)] {
		if b != 0xDB {
			return false
		}
	}
	return true
}
