//go:build poisonscratch

package engine

import "drizzle/internal/data"

// This file enforces the ownership contract written on slotScratch,
// dag.NarrowOp and dag.SinkFunc. Built with -tags poisonscratch, every
// executor slot scribbles over its scratch memory when a task ends, and over
// the records a sink was handed once the sink returns: anything that kept a
// reference to engine-owned memory past its lifetime reads garbage, and the
// engine and chaos suites fail instead of passing by luck.
//
//	go test -tags poisonscratch ./internal/engine ./internal/chaos

func (sc *slotScratch) poison() {
	sc.source.Scribble()
	sc.index.Scribble()
	sc.blocks.Scribble()
	inflate := sc.inflate[:cap(sc.inflate)]
	for i := range inflate {
		inflate[i] = 0xDB
	}
}

func poisonRecords(recs []data.Record) {
	for i := range recs {
		recs[i] = data.PoisonedRecord
	}
}
