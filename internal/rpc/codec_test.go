package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"drizzle/internal/wire"
)

// codecTestMsg is a locally registered binary message exercising the public
// registration API the way an application package would (tag in the 32+
// range).
type codecTestMsg struct {
	Name string
	N    int64
	Blob []byte
}

const tagCodecTest = 200

func init() {
	RegisterBinaryMessage(tagCodecTest, codecTestMsg{},
		func(dst []byte, msg any) []byte {
			m := msg.(codecTestMsg)
			dst = wire.AppendString(dst, m.Name)
			dst = wire.AppendVarint(dst, m.N)
			return wire.AppendBytes(dst, m.Blob)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := codecTestMsg{Name: r.String(), N: r.Varint(), Blob: r.Bytes()}
			return m, r.Done()
		})
}

// fallbackOnlyMsg has no binary registration, so the codec must refuse it.
type fallbackOnlyMsg struct {
	Label string
	Vals  []int
}

func TestValueFormRoundTrip(t *testing.T) {
	msgs := []any{
		codecTestMsg{Name: "registered", N: -42, Blob: []byte{1, 2, 3}},
		codecTestMsg{}, // zero value: nil Blob must stay nil
	}
	for _, in := range msgs {
		b, err := DefaultCodec.EncodeMessage(nil, in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		if b[0] != tagCodecTest {
			t.Fatalf("registered type encoded with tag %d, want %d", b[0], tagCodecTest)
		}
		out, err := DefaultCodec.DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round-trip %T: got %+v, want %+v", in, out, in)
		}
	}
}

// TestUnregisteredTypeHasNoEncoding checks that there is no fallback form:
// a type with no registration is refused in both the value and the stream
// form, and the stream writes nothing for it.
func TestUnregisteredTypeHasNoEncoding(t *testing.T) {
	if b, err := DefaultCodec.EncodeMessage(nil, fallbackOnlyMsg{Label: "x"}); err == nil {
		t.Fatalf("unregistered type encoded as %x, want an error", b)
	}
	var buf bytes.Buffer
	if err := newStreamEncoder(&buf).Encode("a", "b", fallbackOnlyMsg{}); err == nil || buf.Len() != 0 {
		t.Fatalf("stream encode of an unregistered type: err %v, wrote %d bytes", err, buf.Len())
	}
}

func TestBinaryDecodeMessageRejects(t *testing.T) {
	for name, in := range map[string][]byte{
		"empty":          {},
		"tag zero":       {0, 1, 2, 3},
		"unknown tag":    {137, 1, 2, 3},
		"truncated body": {tagCodecTest, 0x10},
		"trailing bytes": append(mustEncode(t, codecTestMsg{Name: "x"}), 0xEE),
	} {
		if _, err := DefaultCodec.DecodeMessage(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func mustEncode(t *testing.T, msg any) []byte {
	t.Helper()
	b, err := DefaultCodec.EncodeMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamRoundTrip(t *testing.T) {
	msgs := []any{
		codecTestMsg{Name: "first", N: 1},
		codecTestMsg{Name: "second"},
		codecTestMsg{Name: "third", N: 3, Blob: bytes.Repeat([]byte{9}, 10_000)},
	}
	var buf bytes.Buffer
	enc := newStreamEncoder(&buf)
	for i, m := range msgs {
		if err := enc.Encode(NodeID("alice"), NodeID("bob"), m); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := newStreamDecoder(bufio.NewReader(&buf))
	for i, want := range msgs {
		from, to, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != "alice" || to != "bob" {
			t.Errorf("message %d: from %q to %q", i, from, to)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestBinaryStreamStartsWithMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := newStreamEncoder(&buf).Encode("a", "b", codecTestMsg{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; [4]byte(got) != binaryMagic {
		t.Fatalf("stream starts %x, want magic %x", got, binaryMagic)
	}
}

func TestBinaryStreamRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.Write(binary.AppendUvarint(nil, maxFrameLen+1))
	_, _, _, err := newStreamDecoder(bufio.NewReader(&buf)).Decode()
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want errFrameTooLarge", err)
	}
}

func TestBinaryStreamRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("not the binary protocol")
	if _, _, _, err := newStreamDecoder(bufio.NewReader(buf)).Decode(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRegisterBinaryMessagePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	nop := func(dst []byte, msg any) []byte { return dst }
	dec := func(b []byte) (any, error) { return nil, nil }
	expectPanic("tag 0", func() { RegisterBinaryMessage(0, struct{ A int }{}, nop, dec) })
	expectPanic("dup tag", func() { RegisterBinaryMessage(tagCodecTest, struct{ B int }{}, nop, dec) })
	expectPanic("dup type", func() { RegisterBinaryMessage(201, codecTestMsg{}, nop, dec) })
}

func FuzzDecodeFrameBody(f *testing.F) {
	// Seed with well-formed frame bodies.
	for _, msg := range []any{
		codecTestMsg{Name: "seed", N: 5, Blob: []byte{1, 2}},
		codecTestMsg{},
	} {
		body := wire.AppendString(nil, "from-node")
		body = wire.AppendString(body, "to-node")
		body, err := DefaultCodec.EncodeMessage(body, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		// The transport's contract for untrusted socket bytes: an error or a
		// decoded envelope, never a panic, with allocation bounded by len(body).
		_, _, _, _ = decodeBinaryFrameBody(body)
	})
}
