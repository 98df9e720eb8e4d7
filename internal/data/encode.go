package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"drizzle/internal/snappy"
)

// Two record-batch layouts coexist, distinguished by the first four bytes:
//
// Row layout (legacy, fixed-width):
//
//	uint32 count
//	repeated count times:
//	    uint64 key | int64 val | int64 time | uint32 payloadLen | payload
//
// Columnar layout (the shuffle default since the binary data plane): the
// first four bytes are the sentinel 0xFFFFFFFF — a count the row decoder
// rejects as implausible, so the two layouts can never be confused — then a
// format byte (1 = columnar) and the batch packed column-at-a-time:
//
//	uvarint count
//	count x zigzag-varint key delta      (delta from the previous key)
//	count x zigzag-varint val
//	count x zigzag-varint time delta     (delta from the previous time)
//	count x uvarint payload length
//	payloads, concatenated
//
// Delta-varint keys and times shrink sorted combiner output to a byte or
// two per field, and aggregation records (val 1, no payload) pack to a few
// bytes instead of the row layout's fixed 28. All fixed-width integers are
// little-endian. Both layouts appear on the shuffle wire and in checkpoint
// state, so they must stay stable and be validated on decode.
//
// A third envelope, format 2, is a snappy-compressed batch: the sentinel,
// format byte 2, then the snappy block encoding of a complete format-0 or
// format-1 batch (nesting another format 2 is rejected). CompressBatch
// produces it at store time, so compression — like encoding — happens once
// when a block is written, never on the serving path.

var errCorrupt = errors.New("data: corrupt record batch")

const (
	recordHeaderSize = 8 + 8 + 8 + 4

	// formatSentinel marks a versioned (non-row) batch; the next byte names
	// the format.
	formatSentinel   = 0xFFFFFFFF
	formatColumnar   = 1
	formatCompressed = 2

	// columnarMinPerRecord is the minimum encoded size of one record in the
	// columnar layout (one byte per column stream), used to reject
	// implausible counts before allocating.
	columnarMinPerRecord = 4
)

// EncodedSize returns the exact number of bytes EncodeBatch will produce.
func EncodedSize(recs []Record) int {
	n := 4
	for i := range recs {
		n += recordHeaderSize + len(recs[i].Payload)
	}
	return n
}

// EncodeBatch appends the binary encoding of recs to dst and returns the
// extended slice.
func EncodeBatch(dst []byte, recs []Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Val))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return dst
}

// EncodeBatchColumnar appends the columnar encoding of recs to dst and
// returns the extended slice. DecodeBatch understands both layouts.
func EncodeBatchColumnar(dst []byte, recs []Record) []byte {
	return AppendColumnar(dst, recs, nil)
}

// AppendColumnar appends the columnar encoding of the records recs[idx[0]],
// recs[idx[1]], ... to dst and returns the extended slice; a nil idx selects
// every record in order. It is how the map side encodes one reducer's block
// straight from the task's output slice (idx being that reducer's share of a
// PartitionIndex) instead of first copying the records out. recs and idx are
// only read, and nothing of them is retained.
func AppendColumnar(dst []byte, recs []Record, idx []uint32) []byte {
	n := len(recs)
	if idx != nil {
		n = len(idx)
	}
	at := func(j int) *Record {
		if idx != nil {
			return &recs[idx[j]]
		}
		return &recs[j]
	}
	dst = binary.LittleEndian.AppendUint32(dst, formatSentinel)
	dst = append(dst, formatColumnar)
	dst = binary.AppendUvarint(dst, uint64(n))
	// Each column reserves its worst case once and is then written by
	// index, which keeps the per-value cost to the varint itself.
	dst = slices.Grow(dst, n*binary.MaxVarintLen64)
	var prevKey uint64
	for j := 0; j < n; j++ {
		// Wrapping subtraction: encode and decode apply the same two's-
		// complement arithmetic, so arbitrary key orders round-trip.
		k := at(j).Key
		dst = appendVarint(dst, int64(k-prevKey))
		prevKey = k
	}
	dst = slices.Grow(dst, n*binary.MaxVarintLen64)
	for j := 0; j < n; j++ {
		dst = appendVarint(dst, at(j).Val)
	}
	dst = slices.Grow(dst, n*binary.MaxVarintLen64)
	var prevTime int64
	for j := 0; j < n; j++ {
		t := at(j).Time
		dst = appendVarint(dst, t-prevTime)
		prevTime = t
	}
	dst = slices.Grow(dst, n*binary.MaxVarintLen64)
	payload := 0
	for j := 0; j < n; j++ {
		l := len(at(j).Payload)
		payload += l
		dst = appendUvarint(dst, uint64(l))
	}
	if payload > 0 {
		dst = slices.Grow(dst, payload)
		for j := 0; j < n; j++ {
			dst = append(dst, at(j).Payload...)
		}
	}
	return dst
}

// appendUvarint is binary.AppendUvarint for a dst that already has
// MaxVarintLen64 spare bytes: it writes by index instead of growing byte by
// byte.
func appendUvarint(dst []byte, v uint64) []byte {
	i := len(dst)
	dst = dst[:i+binary.MaxVarintLen64]
	for v >= 0x80 {
		dst[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	dst[i] = byte(v)
	return dst[:i+1]
}

func appendVarint(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// CompressBatch wraps an encoded batch (either layout) in the compressed
// batch format when it is at least threshold bytes and compression actually
// shrinks it; otherwise b is returned unchanged. A threshold <= 0 disables
// compression.
func CompressBatch(b []byte, threshold int) []byte {
	if threshold <= 0 || len(b) < threshold {
		return b
	}
	if enc, ok := AppendCompressed(make([]byte, 0, 5+len(b)/2), b); ok {
		return enc
	}
	return b
}

// AppendCompressed appends the compressed-batch envelope of the encoded
// batch b to dst. It reports whether the envelope is smaller than b; when it
// is not, the caller should store b as it is and dst comes back at its
// original length (its capacity may have grown).
func AppendCompressed(dst, b []byte) ([]byte, bool) {
	base := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, formatSentinel)
	dst = append(dst, formatCompressed)
	dst = snappy.AppendEncoded(dst, b)
	if len(dst)-base >= len(b) {
		return dst[:base], false
	}
	return dst, true
}

// Batch is a record batch that has been validated but not decoded: Len,
// Iter and AppendTo read the encoded bytes in place. It aliases the slice
// OpenBatch was given (or, for a compressed batch, the inflate buffer), so it
// is valid only as long as those bytes are left alone.
type Batch struct {
	b    []byte // the plain (row or columnar) encoding
	n    int    // record count
	size int    // bytes of the caller's input this batch occupies
	row  bool
	// Column starts within b. The row layout uses key alone, as the start
	// of its first record.
	key, val, time, plen, payload int
	payloadBytes                  int
}

// Len reports the number of records in the batch.
func (b *Batch) Len() int { return b.n }

// OpenBatch validates an encoded batch in any layout without decoding it:
// the row layout by walking its record headers, the columnar layout by a
// skip-scan that finds the end of every column. Whatever OpenBatch accepts,
// Iter and AppendTo read without error; whatever it rejects, DecodeBatch
// rejects too (DecodeBatch is OpenBatch plus AppendTo).
//
// A compressed batch is decompressed by appending to *inflate, which lets a
// caller reuse one buffer for every block of a task; the returned Batch then
// aliases that buffer rather than b. A nil inflate allocates.
func OpenBatch(b []byte, inflate *[]byte) (Batch, error) {
	if len(b) < 4 {
		return Batch{}, fmt.Errorf("%w: short header (%d bytes)", errCorrupt, len(b))
	}
	if binary.LittleEndian.Uint32(b) != formatSentinel {
		return openRow(b)
	}
	if len(b) < 5 {
		return Batch{}, fmt.Errorf("%w: missing format byte", errCorrupt)
	}
	switch b[4] {
	case formatColumnar:
		return openColumnar(b)
	case formatCompressed:
		var fresh []byte
		if inflate == nil {
			inflate = &fresh
		}
		base := len(*inflate)
		grown, err := snappy.AppendDecoded(*inflate, b[5:])
		if err != nil {
			return Batch{}, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		*inflate = grown
		dec := grown[base:len(grown):len(grown)]
		// One decompression per batch: a format-2 body inside a format-2
		// envelope is rejected, so hostile input cannot chain expansions.
		if len(dec) >= 5 && binary.LittleEndian.Uint32(dec) == formatSentinel && dec[4] == formatCompressed {
			return Batch{}, fmt.Errorf("%w: nested compressed batch", errCorrupt)
		}
		inner, err := OpenBatch(dec, nil)
		if err != nil {
			return Batch{}, err
		}
		if inner.size != len(dec) {
			return Batch{}, fmt.Errorf("%w: %d trailing byte(s) inside compressed batch", errCorrupt, len(dec)-inner.size)
		}
		inner.size = len(b)
		return inner, nil
	default:
		return Batch{}, fmt.Errorf("%w: unknown batch format %d", errCorrupt, b[4])
	}
}

func openRow(b []byte) (Batch, error) {
	count := int(binary.LittleEndian.Uint32(b))
	off := 4
	// Guard against absurd counts before anything is sized from them.
	if count < 0 || count > len(b)/recordHeaderSize+1 {
		return Batch{}, fmt.Errorf("%w: implausible record count %d for %d bytes", errCorrupt, count, len(b))
	}
	payloadBytes := 0
	for i := 0; i < count; i++ {
		if len(b)-off < recordHeaderSize {
			return Batch{}, fmt.Errorf("%w: truncated record %d", errCorrupt, i)
		}
		plen := int(binary.LittleEndian.Uint32(b[off+24:]))
		off += recordHeaderSize
		if plen < 0 || len(b)-off < plen {
			return Batch{}, fmt.Errorf("%w: truncated payload of record %d (%d bytes)", errCorrupt, i, plen)
		}
		off += plen
		payloadBytes += plen
	}
	return Batch{b: b, n: count, size: off, row: true, key: 4, payloadBytes: payloadBytes}, nil
}

// skipVarints steps over count varints starting at off, applying
// binary.Uvarint's acceptance rule (at most ten bytes, the tenth at most 1).
// It returns the offset after the last one and the number it got through.
func skipVarints(b []byte, off, count int) (int, int) {
	for i := 0; i < count; i++ {
		end := off + binary.MaxVarintLen64
		if end > len(b) {
			end = len(b)
		}
		j := off
		for j < end && b[j] >= 0x80 {
			j++
		}
		if j == end || (j-off == binary.MaxVarintLen64-1 && b[j] > 1) {
			return off, i
		}
		off = j + 1
	}
	return off, count
}

// openColumnar validates the columnar layout; b starts at the sentinel.
func openColumnar(b []byte) (Batch, error) {
	c, n := binary.Uvarint(b[5:])
	off := 5 + n
	if n <= 0 || c > uint64((len(b)-off)/columnarMinPerRecord) {
		return Batch{}, fmt.Errorf("%w: implausible columnar count %d for %d bytes", errCorrupt, c, len(b)-off)
	}
	out := Batch{b: b, n: int(c), key: off}
	var ends [3]int // of the key, val and time columns
	for i, name := range [...]string{"key", "val", "time"} {
		var done int
		if off, done = skipVarints(b, off, out.n); done < out.n {
			return Batch{}, fmt.Errorf("%w: truncated %s column at record %d", errCorrupt, name, done)
		}
		ends[i] = off
	}
	out.val, out.time, out.plen = ends[0], ends[1], ends[2]
	var total uint64
	for i := 0; i < out.n; i++ {
		l, n := readUvarint(b, off)
		if n <= 0 {
			return Batch{}, fmt.Errorf("%w: truncated length column at record %d", errCorrupt, i)
		}
		off += n
		if l > uint64(len(b)) {
			return Batch{}, fmt.Errorf("%w: payload length %d at record %d", errCorrupt, l, i)
		}
		total += l
		if total > uint64(len(b)-off) {
			return Batch{}, fmt.Errorf("%w: payloads claim %d of %d remaining bytes", errCorrupt, total, len(b)-off)
		}
	}
	out.payload = off
	out.payloadBytes = int(total)
	out.size = off + int(total)
	return out, nil
}

// readUvarint is binary.Uvarint(b[off:]) with the one-byte case, which is
// most values of most columns, kept short enough to inline.
func readUvarint(b []byte, off int) (uint64, int) {
	if off < len(b) && b[off] < 0x80 {
		return uint64(b[off]), 1
	}
	return binary.Uvarint(b[off:])
}

func readVarint(b []byte, off int) (int64, int) {
	u, n := readUvarint(b, off)
	return int64(u>>1) ^ -int64(u&1), n
}

// BatchIter walks the numeric fields of a Batch record by record; payloads
// are skipped. After Next returns true, Key, Val and Time hold the record.
type BatchIter struct {
	Key       uint64
	Val, Time int64

	b       []byte
	left    int
	row     bool
	k, v, t int // cursors: the three columns, or k alone for rows
}

// Iter returns an iterator positioned before the first record.
func (b *Batch) Iter() BatchIter {
	return BatchIter{b: b.b, left: b.n, row: b.row, k: b.key, v: b.val, t: b.time}
}

// Next advances to the next record and reports whether there was one. The
// batch was validated when it was opened, so decoding cannot fail short of
// the bytes having been overwritten since — a bug, which panics.
func (it *BatchIter) Next() bool {
	if it.left == 0 {
		return false
	}
	it.left--
	if it.row {
		r := it.b[it.k : it.k+recordHeaderSize]
		it.Key = binary.LittleEndian.Uint64(r)
		it.Val = int64(binary.LittleEndian.Uint64(r[8:]))
		it.Time = int64(binary.LittleEndian.Uint64(r[16:]))
		it.k += recordHeaderSize + int(binary.LittleEndian.Uint32(r[24:]))
		return true
	}
	dk, nk := readVarint(it.b, it.k)
	val, nv := readVarint(it.b, it.v)
	dt, nt := readVarint(it.b, it.t)
	if nk <= 0 || nv <= 0 || nt <= 0 {
		panic("data: batch bytes changed after OpenBatch validated them")
	}
	it.k, it.v, it.t = it.k+nk, it.v+nv, it.t+nt
	it.Key += uint64(dk)
	it.Val = val
	it.Time += dt
	return true
}

// AppendTo decodes the batch's records onto dst. The records own their
// memory: payloads are copied out (into one allocation per batch), so the
// result stays valid after the encoded bytes are reused.
func (b *Batch) AppendTo(dst []Record) []Record {
	base := len(dst)
	dst = slices.Grow(dst, b.n)[:base+b.n]
	it := b.Iter()
	for i := base; it.Next(); i++ {
		// Field by field: dst's spare capacity may hold anything.
		r := &dst[i]
		r.Key, r.Val, r.Time, r.Payload = it.Key, it.Val, it.Time, nil
	}
	if b.payloadBytes == 0 {
		return dst
	}
	arena := make([]byte, 0, b.payloadBytes)
	keep := func(i int, p []byte) {
		if len(p) > 0 {
			start := len(arena)
			arena = append(arena, p...)
			dst[base+i].Payload = arena[start:len(arena):len(arena)]
		}
	}
	if b.row {
		off := b.key
		for i := 0; i < b.n; i++ {
			l := int(binary.LittleEndian.Uint32(b.b[off+24:]))
			off += recordHeaderSize
			keep(i, b.b[off:off+l])
			off += l
		}
		return dst
	}
	lens, off := b.plen, b.payload
	for i := 0; i < b.n; i++ {
		l, n := readUvarint(b.b, lens)
		lens += n
		keep(i, b.b[off:off+int(l)])
		off += int(l)
	}
	return dst
}

// DecodeBatch decodes a record batch produced by EncodeBatch or
// EncodeBatchColumnar, compressed or not. It returns the records and the
// number of bytes consumed.
func DecodeBatch(b []byte) ([]Record, int, error) {
	batch, err := OpenBatch(b, nil)
	if err != nil {
		return nil, 0, err
	}
	return batch.AppendTo(make([]Record, 0, batch.n)), batch.size, nil
}
