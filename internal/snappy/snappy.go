// Package snappy implements the snappy block format (the framing-free
// variant: a varint uncompressed length followed by literal and copy
// elements), written against the published format description. It exists
// because the data plane wants cheap per-block compression and the build
// deliberately has no external dependencies; both ends of every connection
// run this implementation, so interoperability with other snappy libraries
// is a non-goal (though the format is the standard one).
//
// The decoder is hardened for hostile input — it is a fuzz target: every
// length and offset is bounds-checked, allocation is capped by a plausible
// expansion factor of the *compressed* length (a copy element emits at most
// 64 bytes from 2, so a tiny input claiming a huge decoded length is
// rejected before any allocation), and malformed streams return errors,
// never panic.
package snappy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

var (
	// ErrCorrupt is wrapped by every decode error.
	ErrCorrupt = errors.New("snappy: corrupt input")
	// ErrTooLarge is returned when a decoded-length claim exceeds the hard cap.
	ErrTooLarge = errors.New("snappy: decoded block too large")
)

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxBlockSize is the window the encoder works in: offsets then always
	// fit the 2-byte copy form.
	maxBlockSize = 65536

	// maxDecodedLen caps any decoded block (1 GiB), independent of the
	// expansion-factor plausibility check.
	maxDecodedLen = 1 << 30

	// maxExpansion bounds legitimate decompression expansion: the densest
	// element is a 2-byte tagCopy1 emitting up to 11 bytes and a 3-byte
	// tagCopy2 emitting up to 64, so ~22x is the format's ceiling; 32x
	// leaves slack while still defeating length-claim allocation bombs.
	maxExpansion = 32
)

// AppendEncoded appends the snappy block encoding of src to dst and returns
// the extended slice.
func AppendEncoded(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		blk := src
		if len(blk) > maxBlockSize {
			blk = blk[:maxBlockSize]
		}
		dst = encodeBlock(dst, blk)
		src = src[len(blk):]
	}
	return dst
}

const (
	maxTableBits = 14
	hashMul      = 0x1e35a7bd

	// inputMargin keeps every probe's loads inside the block: the match
	// search stops this far from its end, and the tail goes out as a
	// literal.
	inputMargin = 16 - 1
)

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

func hash(u uint32, shift uint) uint32 {
	return (u * hashMul) >> shift
}

// encodeBlock greedily matches 4-byte anchors through a hash table of
// positions and emits literal runs between matches. len(src) <=
// maxBlockSize, so every position fits the table's uint16 and every offset
// a copy element.
//
// Two things keep it fast where there is little to find. The table is sized
// to the block (256 to 16384 entries), so a small block clears and probes a
// small one. And each miss lengthens the stride of the search: after 32
// misses in a row it probes every second byte, after 32 more every third,
// so incompressible input — hashed keys are — costs a fraction of a probe
// per byte instead of one, while a match resets the stride.
func encodeBlock(dst, src []byte) []byte {
	if len(src) <= inputMargin+1 {
		return emitLiteral(dst, src)
	}
	shift := uint(32 - 8)
	for size := 1 << 8; size < 1<<maxTableBits && size < len(src); size <<= 1 {
		shift--
	}
	// A zero entry names position 0, a candidate like any other: every
	// candidate is verified against the source before it is used.
	var table [1 << maxTableBits]uint16
	limit := len(src) - inputMargin
	lit := 0 // start of the pending literal run
	s := 1
	next := hash(load32(src, s), shift)
	for {
		// Find a match: a candidate whose next four bytes equal ours.
		skip, nextS, cand := 32, s, 0
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > limit {
				return emitLiteral(dst, src[lit:])
			}
			cand = int(table[next])
			table[next] = uint16(s)
			next = hash(load32(src, nextS), shift)
			if load32(src, s) == load32(src, cand) {
				break
			}
		}
		dst = emitLiteral(dst, src[lit:s])
		// Emit the match and, as long as the position right after it
		// matches too, the next one, without going back to the search.
		for {
			base := s
			s = extendMatch(src, cand+4, s+4)
			dst = emitCopy(dst, base-cand, s-base)
			lit = s
			if s >= limit {
				return emitLiteral(dst, src[lit:])
			}
			// Index the last byte of the match and try the one after it.
			x := load64(src, s-1)
			table[hash(uint32(x), shift)] = uint16(s - 1)
			h := hash(uint32(x>>8), shift)
			cand = int(table[h])
			table[h] = uint16(s)
			if uint32(x>>8) != load32(src, cand) {
				next = hash(uint32(x>>16), shift)
				s++
				break
			}
		}
	}
}

// extendMatch returns the end of the match src[j:] has with src[i:] (i <
// j), comparing eight bytes per probe while a full word remains.
func extendMatch(src []byte, i, j int) int {
	for j+8 <= len(src) {
		if x := load64(src, i) ^ load64(src, j); x != 0 {
			return j + bits.TrailingZeros64(x)>>3
		}
		i, j = i+8, j+8
	}
	for j < len(src) && src[i] == src[j] {
		i, j = i+1, j+1
	}
	return j
}

// emitLiteral appends a literal element for b (no-op when empty).
func emitLiteral(dst, b []byte) []byte {
	n := len(b)
	if n == 0 {
		return dst
	}
	switch {
	case n <= 60:
		dst = append(dst, byte(n-1)<<2|tagLiteral)
	case n <= 1<<8:
		dst = append(dst, 60<<2|tagLiteral, byte(n-1))
	default: // block size caps n at 65536
		dst = append(dst, 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8))
	}
	return append(dst, b...)
}

// emitCopy appends copy elements covering length bytes at offset. Chunking
// follows the usual 68/64/60 schedule so the final element is always in the
// legal 4..64 range; that last one takes the 2-byte form when it is short
// (4..11 bytes) and near (offset < 2048), the 3-byte form otherwise.
func emitCopy(dst []byte, offset, length int) []byte {
	for length >= 68 {
		dst = append(dst, 63<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	if length > 64 {
		dst = append(dst, 59<<2|tagCopy2, byte(offset), byte(offset>>8))
		length -= 60
	}
	if length < 12 && offset < 2048 {
		return append(dst, byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1, byte(offset))
	}
	return append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}

// DecodedLen returns the decoded length claimed by an encoded block's
// header and the header's size in bytes.
func DecodedLen(src []byte) (length, headerLen int, err error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if v > maxDecodedLen {
		return 0, 0, fmt.Errorf("%w: claimed %d bytes", ErrTooLarge, v)
	}
	return int(v), n, nil
}

// Decode decompresses an encoded block into a fresh slice.
func Decode(src []byte) ([]byte, error) {
	return AppendDecoded(nil, src)
}

// AppendDecoded decompresses an encoded block onto the end of dst and
// returns the extended slice. It allocates only when dst lacks the
// capacity, so a caller that reuses dst decompresses block after block
// without allocating. On error dst is returned at its original length.
func AppendDecoded(dst, src []byte) ([]byte, error) {
	base := len(dst)
	dLen, hdr, err := DecodedLen(src)
	if err != nil {
		return dst, err
	}
	// Plausibility before allocation: legitimate snappy cannot expand more
	// than maxExpansion x the compressed body.
	body := len(src) - hdr
	if dLen > maxExpansion*body+64 {
		return dst, fmt.Errorf("%w: claimed %d bytes from %d compressed", ErrCorrupt, dLen, body)
	}
	grown := slices.Grow(dst, dLen)[:base+dLen]
	dst = grown[:base] // what every error path returns
	out := grown[base:]
	j := 0 // write position in out
	i := hdr
	for i < len(src) {
		tag := src[i]
		var length, offset int
		switch tag & 3 {
		case tagLiteral:
			l := int(tag >> 2)
			i++
			if l >= 60 {
				extra := l - 59 // 60..63 -> 1..4 trailing length bytes
				if len(src)-i < extra {
					return dst, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
				}
				l = 0
				for k := extra - 1; k >= 0; k-- {
					l = l<<8 | int(src[i+k])
				}
				i += extra
			}
			length = l + 1
			if length > len(src)-i {
				return dst, fmt.Errorf("%w: literal of %d overruns input", ErrCorrupt, length)
			}
			if length > dLen-j {
				return dst, fmt.Errorf("%w: literal of %d overruns output", ErrCorrupt, length)
			}
			if length <= 16 && len(src)-i >= 16 && dLen-j >= 16 {
				// A short literal, the common one, moves as two words. The
				// bytes past its end are written over by what follows:
				// decoding fills the output front to back, all of it.
				binary.LittleEndian.PutUint64(out[j:], binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(out[j+8:], binary.LittleEndian.Uint64(src[i+8:]))
			} else {
				copy(out[j:], src[i:i+length])
			}
			i += length
			j += length
			continue
		case tagCopy1:
			if len(src)-i < 2 {
				return dst, fmt.Errorf("%w: truncated copy1", ErrCorrupt)
			}
			length = 4 + int(tag>>2)&0x7
			offset = int(tag&0xe0)<<3 | int(src[i+1])
			i += 2
		case tagCopy2:
			if len(src)-i < 3 {
				return dst, fmt.Errorf("%w: truncated copy2", ErrCorrupt)
			}
			length = 1 + int(tag>>2)
			offset = int(binary.LittleEndian.Uint16(src[i+1:]))
			i += 3
		case tagCopy4:
			if len(src)-i < 5 {
				return dst, fmt.Errorf("%w: truncated copy4", ErrCorrupt)
			}
			length = 1 + int(tag>>2)
			o := binary.LittleEndian.Uint32(src[i+1:])
			if o > maxDecodedLen {
				return dst, fmt.Errorf("%w: copy4 offset %d", ErrCorrupt, o)
			}
			offset = int(o)
			i += 5
		}
		if offset <= 0 || offset > j {
			return dst, fmt.Errorf("%w: copy offset %d at output position %d", ErrCorrupt, offset, j)
		}
		if length > dLen-j {
			return dst, fmt.Errorf("%w: copy of %d overruns output", ErrCorrupt, length)
		}
		from := j - offset
		if length <= 16 && offset >= 8 && dLen-j >= 16 {
			// A short copy from at least a word back moves as two words,
			// the second read after the first is written, so an overlap
			// reads what the first word put there — as a byte-wise forward
			// copy would. The overshoot is written over, as for literals.
			binary.LittleEndian.PutUint64(out[j:], binary.LittleEndian.Uint64(out[from:]))
			binary.LittleEndian.PutUint64(out[j+8:], binary.LittleEndian.Uint64(out[from+8:]))
			j += length
			continue
		}
		// Forward copy in waves: each pass moves min(length, j-from)
		// bytes, so an overlapping copy (offset < length, the RLE case)
		// doubles the replicated pattern per pass instead of moving one
		// byte at a time, and a non-overlapping copy finishes in one.
		for length > 0 {
			n := copy(out[j:j+length], out[from:j])
			j += n
			length -= n
		}
	}
	if j != dLen {
		return dst, fmt.Errorf("%w: decoded %d bytes, header claimed %d", ErrCorrupt, j, dLen)
	}
	return grown, nil
}
