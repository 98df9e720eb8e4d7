package data

import (
	"encoding/binary"
	"errors"

	"drizzle/internal/snappy"
)

// referenceDecodeBatch is an independent decoder for block format v2, raw or
// dictionary keys: one pass front to back that validates while it
// materialises, written from the layout in encode.go and sharing no code
// with OpenBatch, skipVarints, skipIndices, BatchIter or AppendTo. The
// differential and fuzz tests hold the streaming reader to it — same
// accept/reject verdict, same records, same byte count — so it stays this
// plain, slow allocations and all.
func referenceDecodeBatch(b []byte) ([]Record, int, error) {
	errRef := errors.New("reference: corrupt batch")
	if len(b) < 5 || binary.LittleEndian.Uint32(b) != formatSentinel {
		return nil, 0, errRef
	}
	switch b[4] {
	case formatV2:
		return referenceDecodeV2(b)
	case formatCompressed:
		dec, err := snappy.Decode(b[5:])
		if err != nil {
			return nil, 0, errRef
		}
		if len(dec) >= 5 && binary.LittleEndian.Uint32(dec) == formatSentinel && dec[4] == formatCompressed {
			return nil, 0, errRef
		}
		recs, n, err := referenceDecodeBatch(dec)
		if err != nil || n != len(dec) {
			return nil, 0, errRef
		}
		return recs, len(b), nil
	}
	return nil, 0, errRef
}

func referenceDecodeV2(b []byte) ([]Record, int, error) {
	errRef := errors.New("reference: corrupt v2 batch")
	off := 5
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	varint := func() (int64, bool) {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	c, ok := uvarint()
	if !ok || off >= len(b) {
		return nil, 0, errRef
	}
	flags := b[off]
	off++
	constVal, payloads, dictKeys := flags&1 != 0, flags&2 != 0, flags&4 != 0
	if flags > 7 {
		return nil, 0, errRef
	}
	var recs []Record
	if !dictKeys {
		if c > uint64(len(b)-off)/8 {
			return nil, 0, errRef
		}
		recs = make([]Record, int(c))
		for i := range recs {
			recs[i].Key = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
	} else {
		// The distinct keys, then one index into them per record.
		if c > uint64(len(b)-off) {
			return nil, 0, errRef
		}
		d, ok := uvarint()
		if !ok || d < 1 || d > c || d > uint64(len(b)-off)/8 {
			return nil, 0, errRef
		}
		dict := make([]uint64, int(d))
		for i := range dict {
			dict[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		recs = make([]Record, int(c))
		for i := range recs {
			k, ok := uvarint()
			if !ok || k >= d {
				return nil, 0, errRef
			}
			recs[i].Key = dict[k]
		}
	}
	var prevTime int64
	for i := range recs {
		d, ok := varint()
		if !ok {
			return nil, 0, errRef
		}
		prevTime += d
		recs[i].Time = prevTime
	}
	if constVal {
		v, ok := varint()
		if !ok {
			return nil, 0, errRef
		}
		for i := range recs {
			recs[i].Val = v
		}
	} else {
		for i := range recs {
			if recs[i].Val, ok = varint(); !ok {
				return nil, 0, errRef
			}
		}
	}
	if !payloads {
		return recs, off, nil
	}
	plens := make([]uint64, len(recs))
	var total uint64
	for i := range plens {
		l, ok := uvarint()
		if !ok || l > uint64(len(b)) {
			return nil, 0, errRef
		}
		plens[i] = l
		total += l
		if total > uint64(len(b)-off) {
			return nil, 0, errRef
		}
	}
	for i := range recs {
		if l := int(plens[i]); l > 0 {
			recs[i].Payload = append([]byte(nil), b[off:off+l]...)
			off += l
		}
	}
	return recs, off, nil
}

// The layouts before v2, kept as test oracles: their encoders, and the
// decoder the package had for them. The stale-format tests show that what
// these accept, OpenBatch rejects, and that v2 carries the same records.

const (
	legacyRecordHeaderSize = 8 + 8 + 8 + 4
	legacyFormatColumnar   = 1
)

// legacyEncodeRow is the row layout: uint32 count, then per record key, val,
// time (8 bytes each), uint32 payload length and the payload.
func legacyEncodeRow(recs []Record) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Key)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Val))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return dst
}

// legacyEncodeV1 is format 1: the sentinel, format byte 1, uvarint count,
// then zigzag-varint key deltas, vals and time deltas, uvarint payload
// lengths and the payloads.
func legacyEncodeV1(recs []Record) []byte {
	dst := binary.LittleEndian.AppendUint32(nil, formatSentinel)
	dst = binary.AppendUvarint(append(dst, legacyFormatColumnar), uint64(len(recs)))
	var prevKey uint64
	for _, r := range recs {
		dst = binary.AppendVarint(dst, int64(r.Key-prevKey))
		prevKey = r.Key
	}
	for _, r := range recs {
		dst = binary.AppendVarint(dst, r.Val)
	}
	var prevTime int64
	for _, r := range recs {
		dst = binary.AppendVarint(dst, r.Time-prevTime)
		prevTime = r.Time
	}
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
	}
	for _, r := range recs {
		dst = append(dst, r.Payload...)
	}
	return dst
}

// legacyDecodeBatch is the decoder of the row layout and format 1 (inside a
// format-2 envelope or not), as the package had it before v2.
func legacyDecodeBatch(b []byte) ([]Record, int, error) {
	errRef := errors.New("legacy: corrupt batch")
	if len(b) < 4 {
		return nil, 0, errRef
	}
	if binary.LittleEndian.Uint32(b) == formatSentinel {
		if len(b) < 5 {
			return nil, 0, errRef
		}
		switch b[4] {
		case legacyFormatColumnar:
			return legacyDecodeColumnar(b, 5)
		case formatCompressed:
			dec, err := snappy.Decode(b[5:])
			if err != nil {
				return nil, 0, errRef
			}
			if len(dec) >= 5 && binary.LittleEndian.Uint32(dec) == formatSentinel && dec[4] == formatCompressed {
				return nil, 0, errRef
			}
			recs, n, err := legacyDecodeBatch(dec)
			if err != nil || n != len(dec) {
				return nil, 0, errRef
			}
			return recs, len(b), nil
		default:
			return nil, 0, errRef
		}
	}
	count := int(binary.LittleEndian.Uint32(b))
	off := 4
	if count < 0 || count > len(b)/legacyRecordHeaderSize+1 {
		return nil, 0, errRef
	}
	recs := make([]Record, count)
	for i := 0; i < count; i++ {
		if len(b)-off < legacyRecordHeaderSize {
			return nil, 0, errRef
		}
		r := &recs[i]
		r.Key = binary.LittleEndian.Uint64(b[off:])
		r.Val = int64(binary.LittleEndian.Uint64(b[off+8:]))
		r.Time = int64(binary.LittleEndian.Uint64(b[off+16:]))
		plen := int(binary.LittleEndian.Uint32(b[off+24:]))
		off += legacyRecordHeaderSize
		if plen < 0 || len(b)-off < plen {
			return nil, 0, errRef
		}
		if plen > 0 {
			r.Payload = append([]byte(nil), b[off:off+plen]...)
			off += plen
		}
	}
	return recs, off, nil
}

func legacyDecodeColumnar(b []byte, off int) ([]Record, int, error) {
	errRef := errors.New("legacy: corrupt columnar batch")
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	varint := func() (int64, bool) {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	c, ok := uvarint()
	if !ok || c > uint64((len(b)-off)/4) {
		return nil, 0, errRef
	}
	recs := make([]Record, int(c))
	var prevKey uint64
	for i := range recs {
		d, ok := varint()
		if !ok {
			return nil, 0, errRef
		}
		prevKey += uint64(d)
		recs[i].Key = prevKey
	}
	for i := range recs {
		if recs[i].Val, ok = varint(); !ok {
			return nil, 0, errRef
		}
	}
	var prevTime int64
	for i := range recs {
		d, ok := varint()
		if !ok {
			return nil, 0, errRef
		}
		prevTime += d
		recs[i].Time = prevTime
	}
	plens := make([]uint64, len(recs))
	var total uint64
	for i := range plens {
		l, ok := uvarint()
		if !ok || l > uint64(len(b)) {
			return nil, 0, errRef
		}
		plens[i] = l
		total += l
		if total > uint64(len(b)-off) {
			return nil, 0, errRef
		}
	}
	for i := range recs {
		if l := int(plens[i]); l > 0 {
			recs[i].Payload = append([]byte(nil), b[off:off+l]...)
			off += l
		}
	}
	return recs, off, nil
}
