//go:build poisonscratch

package shuffle

import "drizzle/internal/data"

// Scribble overwrites the writer's scratch with garbage. Ownership tests
// call it when a task ends, so that anything still aliasing the scratch
// shows up as corrupted data instead of passing by luck.
func (w *BlockWriter) Scribble() {
	for _, b := range [][]byte{w.enc[:cap(w.enc)], w.comp[:cap(w.comp)]} {
		for i := range b {
			b[i] = 0xDB
		}
	}
	agg := w.agg[:cap(w.agg)]
	for i := range agg {
		agg[i] = data.PoisonedRecord
	}
	w.keys.Scribble()
}

// scribbleKeys overwrites the encoder's scratch after every Put: a stored
// block, or the next block's encoding, that still read from it would read
// garbage.
func (w *BlockWriter) scribbleKeys() { w.keys.Scribble() }

// KeysPoisoned reports whether the encoder's scratch holds anything and all
// of it, to its full capacity, reads as poison.
func (w *BlockWriter) KeysPoisoned() bool { return w.keys.Poisoned() }
