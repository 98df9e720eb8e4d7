//go:build poisonscratch

package data

// PoisonedRecord is what a record reads as after its owner took the memory
// back (see engine/poison_on.go).
var PoisonedRecord = Record{Key: ^uint64(0), Val: -1 << 62, Time: -1 << 62}

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
