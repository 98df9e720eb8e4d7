package data

import (
	"encoding/binary"
	"errors"

	"drizzle/internal/snappy"
)

// referenceDecodeBatch is the decoder the package had before batches could be
// opened and read in place: it validates while it materialises, one layout at
// a time, and shares no code with OpenBatch, BatchIter or AppendTo. The
// differential and fuzz tests hold the streaming reader to it — same
// accept/reject verdict, same records, same byte count — so it stays as
// written, slow allocations and all.
func referenceDecodeBatch(b []byte) ([]Record, int, error) {
	errRef := errors.New("reference: corrupt batch")
	if len(b) < 4 {
		return nil, 0, errRef
	}
	if binary.LittleEndian.Uint32(b) == formatSentinel {
		if len(b) < 5 {
			return nil, 0, errRef
		}
		switch b[4] {
		case formatColumnar:
			return referenceDecodeColumnar(b, 5)
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
		default:
			return nil, 0, errRef
		}
	}
	count := int(binary.LittleEndian.Uint32(b))
	off := 4
	if count < 0 || count > len(b)/recordHeaderSize+1 {
		return nil, 0, errRef
	}
	recs := make([]Record, count)
	for i := 0; i < count; i++ {
		if len(b)-off < recordHeaderSize {
			return nil, 0, errRef
		}
		r := &recs[i]
		r.Key = binary.LittleEndian.Uint64(b[off:])
		r.Val = int64(binary.LittleEndian.Uint64(b[off+8:]))
		r.Time = int64(binary.LittleEndian.Uint64(b[off+16:]))
		plen := int(binary.LittleEndian.Uint32(b[off+24:]))
		off += recordHeaderSize
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

func referenceDecodeColumnar(b []byte, off int) ([]Record, int, error) {
	errRef := errors.New("reference: corrupt columnar batch")
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
	if !ok || c > uint64((len(b)-off)/columnarMinPerRecord) {
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
