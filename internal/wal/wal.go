// Package wal is the append-only segment log under the driver's durable
// state: the checkpoint LogStore and the driver WAL are both sequences of
// framed records in numbered segment files. A record on disk is
//
//	uvarint payload length | payload | crc32(payload), 4 bytes LE
//
// and a segment is records back to back, nothing else. The layer makes two
// promises. First, appends are asynchronous: Append enqueues and returns,
// a single writer goroutine batches frames onto disk, and only Sync (the
// barrier the driver takes before declaring something durable) waits on an
// fsync. Second, recovery never fails on bad bytes: a torn tail — the
// partially-written frame a crash mid-append leaves — is truncated, and a
// CRC-broken record elsewhere is skipped and counted, so a damaged log
// degrades to an older consistent prefix instead of an unrecoverable one.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// queueLen bounds the async append queue; a full queue makes Append block
// (backpressure) rather than grow without bound.
const queueLen = 1024

// Options tunes a Log. The zero value picks defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ReplayStats describes what Open found on disk.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// Segments is the number of segment files read.
	Segments int
	// Corrupt counts records dropped for a bad CRC or broken framing in
	// sealed (non-final) segments.
	Corrupt int
	// TornBytes is how much of the final segment's tail was truncated.
	TornBytes int64
}

// item is one queued write: a record payload or a rotation marker.
type item struct {
	payload []byte
	rotate  bool
}

// Log is a single-writer segment log. All methods are safe for concurrent
// use, but record ordering is the order Append calls lock the queue.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // writer wakeups and Append/Sync backpressure
	queue    []item
	nextSeq  uint64 // seq assigned to the next Append
	written  uint64 // highest seq written to the OS
	synced   uint64 // highest seq fsynced
	syncWant uint64 // highest seq some Sync caller is waiting on
	err      error  // sticky writer error
	closed   bool

	f       *os.File
	segIdx  int
	segSize int64

	wg sync.WaitGroup
}

func segName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// segIndex parses a segment file name, returning -1 for foreign files.
func segIndex(name string) int {
	var idx int
	if _, err := fmt.Sscanf(name, "seg-%08d.wal", &idx); err != nil {
		return -1
	}
	if segName(idx) != name {
		return -1
	}
	return idx
}

// Open replays every valid record in dir through fn (which may be nil) in
// append order, repairs the final segment's tail, and returns a Log
// positioned to append after the last valid record. A decode error inside
// fn aborts Open; fn implementations that want skip-and-count semantics
// for their own payload corruption should count internally and return nil.
func Open(dir string, opts Options, fn func(payload []byte) error) (*Log, ReplayStats, error) {
	opts = opts.withDefaults()
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		if idx := segIndex(e.Name()); idx >= 0 {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)

	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)

	lastSize := int64(0)
	for i, idx := range segs {
		final := i == len(segs)-1
		size, err := l.replaySegment(idx, final, fn, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Segments++
		if final {
			lastSize = size
		}
	}

	if len(segs) == 0 {
		l.segIdx = 1
		f, err := createSegment(dir, 1)
		if err != nil {
			return nil, stats, err
		}
		l.f = f
	} else {
		l.segIdx = segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(l.segIdx)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.segSize = lastSize
	}
	l.nextSeq = uint64(stats.Records) + 1
	l.written = uint64(stats.Records)
	l.synced = uint64(stats.Records)

	l.wg.Add(1)
	go l.writer()
	return l, stats, nil
}

// replaySegment parses one segment, feeding valid records to fn. For the
// final segment it truncates everything after the last valid record (the
// torn tail); for sealed segments it skips and counts bad records.
func (l *Log) replaySegment(idx int, final bool, fn func([]byte) error, stats *ReplayStats) (int64, error) {
	path := filepath.Join(l.dir, segName(idx))
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	off := 0
	validEnd := 0
	for off < len(b) {
		n, ln := binary.Uvarint(b[off:])
		if ln <= 0 || n > uint64(len(b)-off-ln) || len(b)-off-ln-int(n) < 4 {
			// Broken framing: the frame claims more bytes than exist. In the
			// final segment this is the torn tail a crash mid-append leaves.
			if !final {
				stats.Corrupt++
			}
			break
		}
		payload := b[off+ln : off+ln+int(n)]
		crc := binary.LittleEndian.Uint32(b[off+ln+int(n):])
		off += ln + int(n) + 4
		if crc32.ChecksumIEEE(payload) != crc {
			stats.Corrupt++
			continue // framing intact: skip just this record
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, fmt.Errorf("wal: replay %s: %w", segName(idx), err)
			}
		}
		stats.Records++
		validEnd = off
	}
	if final && validEnd < len(b) {
		// Trailing garbage (torn tail, or a CRC-broken final record):
		// truncate so future appends extend a clean prefix. Skipped bad
		// records *between* valid ones stay — their successors are live.
		stats.TornBytes += int64(len(b) - validEnd)
		// A CRC-skip before validEnd was already counted; the trailing
		// region collapses into the truncation count instead.
		if err := os.Truncate(path, int64(validEnd)); err != nil {
			return 0, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return int64(validEnd), nil
}

func createSegment(dir string, idx int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(idx)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so a just-created or just-removed entry
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append enqueues one record and returns its sequence number. It blocks
// only when the bounded queue is full (backpressure against a stalled
// disk), never on the disk itself. The payload is owned by the log from
// this point.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) >= queueLen && !l.closed && l.err == nil {
		l.cond.Wait()
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.queue = append(l.queue, item{payload: payload})
	l.cond.Broadcast()
	return seq, nil
}

// Rotate seals the active segment and starts a new one, ordered FIFO with
// Appends: records appended after Rotate land in the new segment. Used by
// compaction, which rewrites live state into a fresh segment and then
// drops the sealed ones.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.queue = append(l.queue, item{rotate: true})
	l.cond.Broadcast()
	return nil
}

// Sync blocks until every record appended before the call is fsynced (the
// durability barrier), or returns the writer's sticky error.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	target := l.nextSeq - 1
	if target > l.syncWant {
		l.syncWant = target
	}
	l.cond.Broadcast()
	for l.synced < target && l.err == nil && !l.closed {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.synced < target {
		return ErrClosed
	}
	return nil
}

// SyncedSeq reports the highest record sequence known to be fsynced.
// Comparing an Append's returned seq against it answers "is that record
// durable yet" without blocking.
func (l *Log) SyncedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Err returns the writer's sticky error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// DropSealed removes every sealed segment older than the active one —
// compaction's final step, after the live state has been rewritten into
// the active segment and synced. Callers must Sync first; removing sealed
// segments while their replacement records are still in the page cache
// would make a crash lose both.
func (l *Log) DropSealed() error {
	l.mu.Lock()
	active := l.segIdx
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	removed := false
	for _, e := range entries {
		if idx := segIndex(e.Name()); idx >= 0 && idx < active {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// Close flushes the queue, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.f != nil {
		if l.err == nil {
			err = l.f.Sync()
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	if l.err != nil {
		return l.err
	}
	return err
}

// writer is the single goroutine that moves queued records to disk.
func (l *Log) writer() {
	defer l.wg.Done()
	var buf []byte
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && l.syncWant <= l.synced && !l.closed {
			l.cond.Wait()
		}
		if l.closed && len(l.queue) == 0 {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		wantSync := l.syncWant > l.synced
		l.cond.Broadcast() // free Append callers blocked on the full queue
		l.mu.Unlock()

		var wrote uint64
		var werr error
		for _, it := range batch {
			if it.rotate {
				if err := l.rotateLocked(); err != nil {
					werr = err
					break
				}
				continue
			}
			buf = buf[:0]
			buf = binary.AppendUvarint(buf, uint64(len(it.payload)))
			buf = append(buf, it.payload...)
			var crc [4]byte
			binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(it.payload))
			buf = append(buf, crc[:]...)
			if _, err := l.f.Write(buf); err != nil {
				werr = fmt.Errorf("wal: write: %w", err)
				break
			}
			l.segSize += int64(len(buf))
			wrote++
			if l.segSize >= l.opts.SegmentBytes {
				if err := l.rotateLocked(); err != nil {
					werr = err
					break
				}
			}
		}

		l.mu.Lock()
		l.written += wrote
		doSync := werr == nil && (wantSync || (l.closed && l.written > l.synced))
		l.mu.Unlock()
		if doSync {
			if err := l.f.Sync(); err != nil && werr == nil {
				werr = fmt.Errorf("wal: fsync: %w", err)
			}
		}
		l.mu.Lock()
		if werr != nil && l.err == nil {
			l.err = werr
		}
		if doSync && werr == nil {
			l.synced = l.written
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// rotateLocked seals the active segment (fsync, so sealed = durable) and
// opens the next. Called only from the writer goroutine; segIdx is read by
// DropSealed under mu, hence the brief lock for the bump.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	next, err := createSegment(l.dir, l.segIdx+1)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.segIdx++
	l.segSize = 0
	l.mu.Unlock()
	l.f = next
	return nil
}
