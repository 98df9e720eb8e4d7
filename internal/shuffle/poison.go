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
}
