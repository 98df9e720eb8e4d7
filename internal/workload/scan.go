package workload

import (
	"encoding/binary"
	"math/bits"
)

// The one JSON reader both jobs parse with. The benchmark measures the cost
// of deserialization on the critical path, so the reader is real — it
// validates structure, handles any field order and escaped quotes — but it
// reads the payload bytes in place: no document tree, no string copies.
// It reads compact flat objects, which is what the sources emit: members
// are strings or scalars, with no insignificant whitespace.

// nextField reads the member `"key":value` that starts at b[i]. It returns
// the key without its quotes, the value token as written (a string keeps its
// quotes, so "1" cannot pass for 1) and the offset of the ',' or '}' that
// follows the value; end < 0 means the document is malformed.
func nextField(b []byte, i int) (key, val []byte, end int) {
	if i >= len(b) || b[i] != '"' {
		return nil, nil, -1
	}
	j := stringEnd(b, i+1)
	if j < 0 || j+2 >= len(b) || b[j+1] != ':' {
		return nil, nil, -1
	}
	key = b[i+1 : j]
	i = j + 2
	if b[i] == '"' {
		if j = stringEnd(b, i+1); j < 0 {
			return nil, nil, -1
		}
		j++
	} else {
		for j = i; j < len(b) && scalarByte(b[j]); j++ {
		}
		if j == i {
			return nil, nil, -1
		}
	}
	if j >= len(b) || (b[j] != ',' && b[j] != '}') {
		return nil, nil, -1
	}
	return key, b[i:j], j
}

// stringEnd returns the offset of the quote that closes the string whose
// contents start at b[i], or -1 if the string is not terminated. The byte
// after a backslash is part of the string whatever it is.
func stringEnd(b []byte, i int) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for i < len(b) {
		if i+8 <= len(b) {
			// Eight bytes at a time: a byte of q or e is zero where b has a
			// quote or a backslash, and the lowest high bit of m marks the
			// first such byte.
			w := binary.LittleEndian.Uint64(b[i:])
			q, e := w^(lo*'"'), w^(lo*'\\')
			m := ((q-lo)&^q | (e-lo)&^e) & hi
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		switch b[i] {
		case '"':
			return i
		case '\\':
			i++
		}
		i++
	}
	return -1
}

// scalarByte reports whether c can appear in a number, true, false or null.
func scalarByte(c byte) bool {
	return c-'0' <= 9 || (c|0x20)-'a' <= 'z'-'a' || c == '-' || c == '.' || c == '+'
}

// plainString returns the contents of a string token. A string with an
// escape sequence is refused, not decoded: no key either job joins or
// groups on contains one, and its raw bytes would not equal its value.
func plainString(tok []byte) ([]byte, bool) {
	if len(tok) < 2 || tok[0] != '"' {
		return nil, false
	}
	tok = tok[1 : len(tok)-1]
	for _, c := range tok {
		if c == '\\' {
			return nil, false
		}
	}
	return tok, true
}

// parseInt reads a decimal int64 token without allocating. It refuses an
// empty token, a sign with no digits, any non-digit, and a value outside
// int64.
func parseInt(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if d > 9 || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), u <= 1<<63
	}
	return int64(u), u < 1<<63
}
