//go:build !poisonscratch

package shuffle

func (w *BlockWriter) scribbleKeys() {}
