package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"drizzle/internal/snappy"
)

// A record batch has one layout, block format v2, packed column-at-a-time:
//
//	uint32 0xFFFFFFFF                  sentinel
//	byte   3                           format v2
//	uvarint count
//	byte   flags                       bit 0: one val for all; bit 1: payloads;
//	                                   bit 2: dictionary keys
//	key column, one of:
//	  count x uint64 key               raw, fixed width
//	  uvarint d, d x uint64 key,       (bit 2) the distinct keys in first-seen
//	  count x uvarint index            order, then each record's index into them
//	count x zigzag-varint time delta   (delta from the previous time)
//	val column: one zigzag varint (bit 0) or count x zigzag varint
//	if bit 1: count x uvarint payload length, then the payloads concatenated
//
// Keys are 64-bit hashes: raw, they take eight bytes where a delta varint
// took ten. A batch whose keys repeat — a hot key in a Zipf stream — lists
// each key once and gives every record a one- or two-byte index, the
// hottest keys the smallest; the encoder takes that form only when it is
// smaller than the raw column, so a batch of distinct keys keeps the raw
// one. Aggregation inputs carry val 1 and no payload, so those columns
// shrink to one byte and nothing. DESIGN.md § "Shuffle block format" has
// the reasoning.
//
// Format 2 is the compressed envelope: the sentinel, format byte 2, then the
// snappy block encoding of a complete v2 batch (nesting another format 2 is
// rejected). CompressBatch produces it at store time, so compression — like
// encoding — happens once when a block is written, never on the serving
// path.
//
// Earlier layouts (a fixed-width row layout without the sentinel, and format
// 1, which delta-encoded keys) are not read: their blocks fail with "unknown
// batch format". Blocks live no longer than the run that wrote them, and
// checkpoints have their own encoding, so nothing needs to read them.

var errCorrupt = errors.New("data: corrupt record batch")

const (
	// formatSentinel starts every batch; the next byte names the format.
	formatSentinel   = 0xFFFFFFFF
	formatCompressed = 2
	formatV2         = 3

	// Flag bits of a v2 batch.
	flagConstVal = 1 << 0
	flagPayloads = 1 << 1
	flagDictKeys = 1 << 2
)

// EncodedSize returns an upper bound on the bytes EncodeBatchColumnar
// appends for recs: a dst with that much spare capacity is never
// reallocated.
func EncodedSize(recs []Record) int {
	n := len(recs)
	size := 16 + n*(8+binary.MaxVarintLen64) + binary.MaxVarintLen64
	payload, varying := 0, false
	for i := range recs {
		payload += len(recs[i].Payload)
		varying = varying || recs[i].Val != recs[0].Val
	}
	if varying {
		size += n * binary.MaxVarintLen64
	}
	if payload > 0 {
		size += n*binary.MaxVarintLen64 + payload
	}
	return size
}

// EncodeBatchColumnar appends the encoding of recs to dst and returns the
// extended slice. It builds its key dictionary in scratch of its own; a
// caller that encodes batch after batch keeps an Encoder instead.
func EncodeBatchColumnar(dst []byte, recs []Record) []byte {
	var e Encoder
	dst, _ = e.AppendColumnar(dst, recs, nil)
	return dst
}

// Encoder encodes record batches, keeping from one batch to the next the
// scratch its key dictionary and time column are built in. The zero value
// is ready to use; it is not safe for concurrent use.
type Encoder struct {
	slots []uint32 // open-addressed key table: position+1 in dict, 0 when empty
	dict  []uint64 // the batch's distinct keys, in first-seen order
	ids   []uint32 // each record's position in dict
	times []byte   // the time column
}

// AppendColumnar appends the encoding of the records recs[idx[0]],
// recs[idx[1]], ... to dst and returns the extended slice, and whether its
// keys took the dictionary form; a nil idx selects every record in order.
// It is how the map side encodes one reducer's block straight from the
// task's output slice (idx being that reducer's share of a PartitionIndex)
// instead of first copying the records out. recs and idx are only read, and
// nothing of them is retained.
func (e *Encoder) AppendColumnar(dst []byte, recs []Record, idx []uint32) ([]byte, bool) {
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
	dst = append(dst, formatV2)
	dst = binary.AppendUvarint(dst, uint64(n))
	flags := len(dst)
	dst = append(dst, 0)
	// One pass over the records gives every key its dictionary index, writes
	// the time column into scratch, and finds out whether the val column
	// collapses and whether there are payloads. The table is at most half
	// full, so a probe almost always ends at its first slot.
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(e.slots) < size {
		e.slots = make([]uint32, size)
	} else {
		e.slots = e.slots[:size]
		clear(e.slots)
	}
	mask, shift := uint64(size-1), uint(64-bits.TrailingZeros(uint(size)))
	e.dict = e.dict[:0]
	e.ids = slices.Grow(e.ids[:0], n)[:n]
	e.times = slices.Grow(e.times[:0], n*binary.MaxVarintLen64)
	var val0, prevTime int64
	if n > 0 {
		val0 = at(0).Val
	}
	constVal, payload, idBytes := true, 0, 0
	for j := 0; j < n; j++ {
		r := at(j)
		s := r.Key * 0x9E3779B97F4A7C15 >> shift
		for e.slots[s] != 0 && e.dict[e.slots[s]-1] != r.Key {
			s = (s + 1) & mask
		}
		if e.slots[s] == 0 {
			e.dict = append(e.dict, r.Key)
			e.slots[s] = uint32(len(e.dict))
		}
		id := e.slots[s] - 1
		e.ids[j] = id
		idBytes += uvarintLen(uint64(id))
		e.times = appendVarint(e.times, r.Time-prevTime)
		prevTime = r.Time
		constVal = constVal && r.Val == val0
		payload += len(r.Payload)
	}
	d := len(e.dict)
	dictBytes := uvarintLen(uint64(d)) + 8*d + idBytes
	useDict := dictBytes < 8*n
	dst = slices.Grow(dst, min(dictBytes, 8*n)+len(e.times)+binary.MaxVarintLen64)
	if useDict {
		dst[flags] |= flagDictKeys
		dst = binary.AppendUvarint(dst, uint64(d))
		for _, k := range e.dict {
			dst = binary.LittleEndian.AppendUint64(dst, k)
		}
		for _, id := range e.ids {
			dst = appendUvarint(dst, uint64(id))
		}
	} else {
		for _, id := range e.ids {
			dst = binary.LittleEndian.AppendUint64(dst, e.dict[id])
		}
	}
	dst = append(dst, e.times...)
	if n > 0 && constVal {
		dst[flags] |= flagConstVal
		dst = binary.AppendVarint(dst, val0)
	} else {
		dst = slices.Grow(dst, n*binary.MaxVarintLen64)
		for j := 0; j < n; j++ {
			dst = appendVarint(dst, at(j).Val)
		}
	}
	if payload == 0 {
		return dst, useDict
	}
	dst[flags] |= flagPayloads
	dst = slices.Grow(dst, n*binary.MaxVarintLen64+payload)
	for j := 0; j < n; j++ {
		dst = appendUvarint(dst, uint64(len(at(j).Payload)))
	}
	for j := 0; j < n; j++ {
		dst = append(dst, at(j).Payload...)
	}
	return dst, useDict
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

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendVarint(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// CompressBatch wraps an encoded batch in the compressed batch format when it
// is at least threshold bytes and compression actually shrinks it; otherwise
// b is returned unchanged. A threshold <= 0 disables compression.
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
	b        []byte // the plain v2 encoding
	n        int    // record count
	size     int    // bytes of the caller's input this batch occupies
	constVal bool
	// Column starts within b; dict only when the keys are dictionary-coded
	// (0 otherwise: it is never the start of a batch), plen and payload only
	// when payloadBytes > 0.
	dict, key, time, val, plen, payload int
	payloadBytes                        int
}

// Len reports the number of records in the batch.
func (b *Batch) Len() int { return b.n }

// Size reports how many bytes of OpenBatch's input the batch occupies;
// anything after them is not part of it.
func (b *Batch) Size() int { return b.size }

// OpenBatch validates an encoded batch without decoding it: one bounds check
// for a raw key column (for a dictionary one, bounds checks of the
// dictionary and a range check of every index) and a skip-scan that finds
// the end of every varint column. Whatever OpenBatch accepts, Iter and
// AppendTo read without error; whatever it rejects, DecodeBatch rejects too
// (DecodeBatch is OpenBatch plus AppendTo).
//
// A compressed batch is decompressed by appending to *inflate, which lets a
// caller reuse one buffer for every block of a task; the returned Batch then
// aliases that buffer rather than b. A nil inflate allocates.
func OpenBatch(b []byte, inflate *[]byte) (Batch, error) {
	if len(b) < 5 {
		return Batch{}, fmt.Errorf("%w: short header (%d bytes)", errCorrupt, len(b))
	}
	if binary.LittleEndian.Uint32(b) != formatSentinel {
		return Batch{}, fmt.Errorf("%w: unknown batch format (no sentinel)", errCorrupt)
	}
	switch b[4] {
	case formatV2:
		return openV2(b)
	case formatCompressed:
		if inflate == nil {
			inflate = new([]byte)
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

// skipVarints steps over count varints starting at off, applying
// binary.Uvarint's acceptance rule (at most ten bytes, the tenth at most 1).
// It returns the offset after the last one and the number it got through.
//
// While eight or more are left it reads a word at a time: every byte below
// 0x80 ends a varint, so the clear top bits count the varints ending in the
// word, and since each word starts at a varint boundary, those are at most
// eight bytes long and need no further check. Longer varints and the last
// few go byte by byte.
func skipVarints(b []byte, off, count int) (int, int) {
	done := 0
	for done < count {
		if off+8 <= len(b) && count-done >= 8 {
			if ends := ^binary.LittleEndian.Uint64(b[off:]) & 0x8080808080808080; ends != 0 {
				off += (63-bits.LeadingZeros64(ends))>>3 + 1
				done += bits.OnesCount64(ends)
				continue
			}
		}
		end := min(off+binary.MaxVarintLen64, len(b))
		j := off
		for j < end && b[j] >= 0x80 {
			j++
		}
		if j == end || (j-off == binary.MaxVarintLen64-1 && b[j] > 1) {
			return off, done
		}
		off = j + 1
		done++
	}
	return off, count
}

// skipIndices steps over count uvarint dictionary indices starting at off,
// each of which must be below d. It returns the offset after the last one
// and the number it got through before a truncated or out-of-range one.
//
// The indices of a dictionary batch are one or two bytes, in an order no
// branch predictor can follow, so the first pass decodes them without a
// branch: it folds "out of range" and "longer than two bytes" into one
// flag and only looks at the flag at the end. Longer indices (more than
// 16 384 distinct keys), corrupt ones and the last index of a block with
// nothing after it take the exact pass, which stops at the first bad one.
func skipIndices(b []byte, off, count int, d uint64) (int, int) {
	start, i := off, 0
	var bad uint64
	for ; i < count && off+1 < len(b); i++ {
		c0, c1 := uint64(b[off]), uint64(b[off+1])
		more := c0 >> 7
		v := c0&0x7f | c1<<7&-more
		bad |= more&(c1>>7) | (d-1-v)>>63
		off += 1 + int(more)
	}
	if bad == 0 && i == count {
		return off, count
	}
	off = start
	for i := 0; i < count; i++ {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 || v >= d {
			return off, i
		}
		off += k
	}
	return off, count
}

// openV2 validates the v2 layout; b starts at the sentinel.
func openV2(b []byte) (Batch, error) {
	c, n := binary.Uvarint(b[5:])
	off := 5 + n
	if n <= 0 || off >= len(b) {
		return Batch{}, fmt.Errorf("%w: truncated header", errCorrupt)
	}
	flags := b[off]
	off++
	if flags&^(flagConstVal|flagPayloads|flagDictKeys) != 0 {
		return Batch{}, fmt.Errorf("%w: unknown flags %#x", errCorrupt, flags)
	}
	out := Batch{b: b, constVal: flags&flagConstVal != 0}
	var done int
	if flags&flagDictKeys == 0 {
		if c > uint64(len(b)-off)/8 {
			return Batch{}, fmt.Errorf("%w: %d keys do not fit in %d bytes", errCorrupt, c, len(b)-off)
		}
		out.n, out.key = int(c), off
		off += 8 * out.n
	} else {
		// Every index takes at least a byte.
		if c > uint64(len(b)-off) {
			return Batch{}, fmt.Errorf("%w: %d key indices do not fit in %d bytes", errCorrupt, c, len(b)-off)
		}
		out.n = int(c)
		d, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return Batch{}, fmt.Errorf("%w: truncated dictionary size", errCorrupt)
		}
		off += k
		if d == 0 || d > c {
			return Batch{}, fmt.Errorf("%w: dictionary of %d keys for %d records", errCorrupt, d, c)
		}
		if d > uint64(len(b)-off)/8 {
			return Batch{}, fmt.Errorf("%w: dictionary of %d keys does not fit in %d bytes", errCorrupt, d, len(b)-off)
		}
		out.dict = off
		off += 8 * int(d)
		out.key = off
		if off, done = skipIndices(b, off, out.n, d); done < out.n {
			return Batch{}, fmt.Errorf("%w: truncated or out-of-range key index at record %d", errCorrupt, done)
		}
	}
	out.time = off
	if off, done = skipVarints(b, off, out.n); done < out.n {
		return Batch{}, fmt.Errorf("%w: truncated time column at record %d", errCorrupt, done)
	}
	out.val = off
	vals := out.n
	if out.constVal {
		vals = 1
	}
	if off, done = skipVarints(b, off, vals); done < vals {
		return Batch{}, fmt.Errorf("%w: truncated val column at value %d", errCorrupt, done)
	}
	if flags&flagPayloads == 0 {
		out.size = off
		return out, nil
	}
	out.plen = off
	var total uint64
	for i := 0; i < out.n; i++ {
		l, n := binary.Uvarint(b[off:])
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

// trustedUvarint decodes a varint that OpenBatch has validated and returns
// it with the offset after it. It checks nothing but the slice bounds, so
// bytes overwritten since validation — a bug — panic.
func trustedUvarint(b []byte, off int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		c := b[off]
		off++
		if c < 0x80 {
			return v | uint64(c)<<s, off
		}
		v |= uint64(c&0x7f) << s
	}
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BatchIter walks the numeric fields of a Batch record by record; payloads
// are skipped. After Next returns true, Key, Val and Time hold the record.
type BatchIter struct {
	Key       uint64
	Val, Time int64

	b        []byte
	left     int
	dict     int // start of the key dictionary, 0 when keys are raw
	k, t, v  int // column cursors
	constVal bool
}

// Iter returns an iterator positioned before the first record.
func (b *Batch) Iter() BatchIter {
	it := BatchIter{b: b.b, left: b.n, dict: b.dict, k: b.key, t: b.time, v: b.val, constVal: b.constVal}
	if b.constVal {
		u, _ := trustedUvarint(b.b, b.val)
		it.Val = unzigzag(u)
	}
	return it
}

// Next advances to the next record and reports whether there was one. The
// batch was validated when it was opened, so decoding cannot fail.
func (it *BatchIter) Next() bool {
	if it.left == 0 {
		return false
	}
	it.left--
	var u uint64
	if it.dict != 0 {
		// An index is one or two bytes unless the dictionary holds more
		// than 16 384 keys; the time column follows, so c1 is in bounds.
		c0, c1 := uint64(it.b[it.k]), uint64(it.b[it.k+1])
		if more := c0 >> 7; more&(c1>>7) == 0 {
			u = c0&0x7f | c1<<7&-more
			it.k += 1 + int(more)
		} else {
			u, it.k = trustedUvarint(it.b, it.k)
		}
		it.Key = binary.LittleEndian.Uint64(it.b[it.dict+8*int(u):])
	} else {
		it.Key = binary.LittleEndian.Uint64(it.b[it.k:])
		it.k += 8
	}
	u, it.t = trustedUvarint(it.b, it.t)
	it.Time += unzigzag(u)
	if !it.constVal {
		u, it.v = trustedUvarint(it.b, it.v)
		it.Val = unzigzag(u)
	}
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
	lens, off := b.plen, b.payload
	for i := 0; i < b.n; i++ {
		var l uint64
		l, lens = trustedUvarint(b.b, lens)
		if l > 0 {
			start := len(arena)
			arena = append(arena, b.b[off:off+int(l)]...)
			dst[base+i].Payload = arena[start:len(arena):len(arena)]
		}
		off += int(l)
	}
	return dst
}

// DecodeBatch decodes a record batch produced by EncodeBatchColumnar,
// compressed or not. It returns the records and the number of bytes
// consumed.
func DecodeBatch(b []byte) ([]Record, int, error) {
	batch, err := OpenBatch(b, nil)
	if err != nil {
		return nil, 0, err
	}
	return batch.AppendTo(make([]Record, 0, batch.n)), batch.size, nil
}
