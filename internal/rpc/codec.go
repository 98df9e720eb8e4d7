package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"

	"drizzle/internal/wire"
)

// Codec is the wire codec: every message type that crosses a process
// boundary registers a tag plus hand-rolled append/decode functions
// (RegisterBinaryMessage), and Codec frames them. The TCP transport writes
// its stream form (magic, then length-prefixed frames); the in-memory
// transport's round-trip mode and the tests use the value form
// (EncodeMessage/DecodeMessage: tag byte plus registered encoding).
type Codec struct{}

// DefaultCodec is the codec every transport speaks.
var DefaultCodec Codec

// ---------------------------------------------------------------------------
// Message registry

// Message types register a tag plus hand-rolled append/decode functions
// here (from init functions in the packages that define them — internal/core
// and internal/shuffle). Tags are wire-stable bytes shared across processes:
//
//	0        reserved, never registered
//	1..15    internal/core control-plane messages
//	16..31   internal/shuffle data-plane messages
//	32..     applications and tests
type binarySpec struct {
	tag    byte
	append func(dst []byte, msg any) []byte
	decode func(b []byte) (any, error)
}

var (
	binaryMu     sync.RWMutex
	binaryByType = make(map[reflect.Type]*binarySpec)
	binaryByTag  [256]*binarySpec
)

// RegisterBinaryMessage installs the codec's encoder and decoder for the
// concrete type of prototype under tag. Tags and types must be unique;
// call it from an init function. The append function receives a value of
// exactly prototype's type; decode must return one and reject malformed
// input with an error (the fuzz harness holds it to that).
func RegisterBinaryMessage(tag byte, prototype any, append func(dst []byte, msg any) []byte, decode func(b []byte) (any, error)) {
	if tag == 0 {
		panic("rpc: binary tag 0 is reserved")
	}
	t := reflect.TypeOf(prototype)
	binaryMu.Lock()
	defer binaryMu.Unlock()
	if binaryByTag[tag] != nil {
		panic(fmt.Sprintf("rpc: binary tag %d already registered", tag))
	}
	if _, ok := binaryByType[t]; ok {
		panic(fmt.Sprintf("rpc: binary codec for %v already registered", t))
	}
	spec := &binarySpec{tag: tag, append: append, decode: decode}
	binaryByTag[tag] = spec
	binaryByType[t] = spec
}

func binarySpecFor(msg any) *binarySpec {
	binaryMu.RLock()
	s := binaryByType[reflect.TypeOf(msg)]
	binaryMu.RUnlock()
	return s
}

func binarySpecForTag(tag byte) *binarySpec {
	binaryMu.RLock()
	s := binaryByTag[tag]
	binaryMu.RUnlock()
	return s
}

// ---------------------------------------------------------------------------
// Framing

// A connection opens with a 4-byte magic; a peer that does not is speaking
// some other protocol and is disconnected. After the magic, the stream is a
// sequence of frames: uvarint body length, then the body — from and to as
// length-prefixed strings, a type tag byte, and the registered encoding of
// the payload.
var binaryMagic = [4]byte{0xD7, 'Z', 'B', 0x01}

// maxFrameLen caps a frame body; a length prefix above it is rejected
// before any allocation.
const maxFrameLen = 1 << 30

// errFrameTooLarge is returned for frames whose length prefix exceeds
// maxFrameLen.
var errFrameTooLarge = errors.New("rpc: frame exceeds size cap")

// frameBufPool recycles encode and decode scratch buffers. Buffers that
// grew beyond maxPooledBuf (a giant shuffle block passed through) are
// dropped instead of pinned.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }
func putFrameBuf(pb *[]byte) {
	if cap(*pb) <= maxPooledBuf {
		*pb = (*pb)[:0]
		frameBufPool.Put(pb)
	}
}

// EncodeMessage appends the value-form encoding of msg (tag byte plus the
// registered encoding) to dst. A type with no registration is an error.
func (Codec) EncodeMessage(dst []byte, msg any) ([]byte, error) {
	spec := binarySpecFor(msg)
	if spec == nil {
		return nil, fmt.Errorf("rpc: no wire encoding registered for %T", msg)
	}
	dst = append(dst, spec.tag)
	return spec.append(dst, msg), nil
}

// DecodeMessage decodes one value-form message. The result never aliases b.
func (Codec) DecodeMessage(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty message", wire.ErrMalformed)
	}
	spec := binarySpecForTag(b[0])
	if spec == nil {
		return nil, fmt.Errorf("%w: unknown message tag %d", wire.ErrMalformed, b[0])
	}
	return spec.decode(b[1:])
}

// streamEncoder writes framed (from, to, payload) envelopes to one
// connection, opening it with the magic.
type streamEncoder struct {
	w          io.Writer
	wroteMagic bool
	scratch    [binary.MaxVarintLen64]byte
}

func newStreamEncoder(w io.Writer) *streamEncoder {
	return &streamEncoder{w: w}
}

func (e *streamEncoder) Encode(from, to NodeID, msg any) error {
	pb := getFrameBuf()
	defer putFrameBuf(pb)
	body := (*pb)[:0]
	body = wire.AppendString(body, string(from))
	body = wire.AppendString(body, string(to))
	body, err := DefaultCodec.EncodeMessage(body, msg)
	if err != nil {
		return err
	}
	*pb = body // keep the grown buffer for the pool
	if !e.wroteMagic {
		if _, err := e.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		e.wroteMagic = true
	}
	n := binary.PutUvarint(e.scratch[:], uint64(len(body)))
	if _, err := e.w.Write(e.scratch[:n]); err != nil {
		return err
	}
	_, err = e.w.Write(body)
	return err
}

// streamDecoder reads framed envelopes off one connection. Its first
// Decode fails unless the stream opens with the magic.
type streamDecoder struct {
	r         *bufio.Reader
	readMagic bool
}

func newStreamDecoder(r *bufio.Reader) *streamDecoder {
	return &streamDecoder{r: r}
}

func (d *streamDecoder) Decode() (NodeID, NodeID, any, error) {
	if !d.readMagic {
		var m [4]byte
		if _, err := io.ReadFull(d.r, m[:]); err != nil {
			return "", "", nil, err
		}
		if m != binaryMagic {
			return "", "", nil, fmt.Errorf("%w: bad stream magic %x", wire.ErrMalformed, m)
		}
		d.readMagic = true
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", "", nil, err
	}
	if n > maxFrameLen {
		return "", "", nil, fmt.Errorf("%w: %d bytes", errFrameTooLarge, n)
	}
	pb := getFrameBuf()
	defer putFrameBuf(pb)
	body := *pb
	if uint64(cap(body)) < n {
		body = make([]byte, n)
	} else {
		body = body[:n]
	}
	*pb = body
	if _, err := io.ReadFull(d.r, body); err != nil {
		// A peer that dies mid-frame surfaces as an unexpected EOF, which
		// the transport treats like any torn-down connection.
		return "", "", nil, err
	}
	return decodeBinaryFrameBody(body)
}

// decodeBinaryFrameBody decodes one frame body (everything after the length
// prefix). Split out so the fuzz target can drive the exact decode path the
// transport runs on untrusted socket bytes.
func decodeBinaryFrameBody(body []byte) (NodeID, NodeID, any, error) {
	r := wire.NewReader(body)
	from := NodeID(r.String())
	to := NodeID(r.String())
	if err := r.Err(); err != nil {
		return "", "", nil, err
	}
	msg, err := DefaultCodec.DecodeMessage(body[len(body)-r.Remaining():])
	if err != nil {
		return "", "", nil, err
	}
	return from, to, msg, nil
}
