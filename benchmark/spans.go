package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drizzle/internal/trace"
)

// span is one timed call into a layer. Spans of one micro-batch share its
// batch number; Parent is the span that caused this one (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix nanoseconds
	End    int64  `json:"end"`
	Batch  int64  `json:"batch"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent uint64, batch int64) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Batch: batch,
	})
	l.mu.Unlock()
	return id
}

// setEnd moves the end of a span recorded before its work was done.
func (l *spanLog) setEnd(id uint64, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = end.UnixNano()
	l.mu.Unlock()
}

// addEngine appends the engine's own spans (driver and worker tracers),
// keeping their IDs apart from the benchmark's by the tracer's high bits.
func (l *spanLog) addEngine(spans []trace.Span) {
	l.mu.Lock()
	for _, s := range spans {
		l.spans = append(l.spans, span{
			ID: uint64(s.ID), Parent: uint64(s.Parent), Name: "engine." + s.Name,
			Start: s.Start, End: s.Start + s.Dur, Batch: s.Batch,
		})
	}
	l.mu.Unlock()
}

// writeJSONL dumps the spans one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err = enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
