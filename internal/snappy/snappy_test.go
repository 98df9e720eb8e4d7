package snappy

import (
	"bytes"
	"testing"
)

// lcg fills b with deterministic pseudo-random (incompressible) bytes.
func lcg(b []byte, seed uint64) {
	s := seed
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = byte(s >> 56)
	}
}

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := AppendEncoded(nil, src)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%d-byte src): %v", len(src), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTrip(t *testing.T) {
	rnd := make([]byte, 100_000)
	lcg(rnd, 7)
	cases := map[string][]byte{
		"empty":                {},
		"one byte":             {42},
		"short":                []byte("hello snappy"),
		"all zeros":            make([]byte, 50_000),
		"repetitive":           bytes.Repeat([]byte("drizzle batches micro "), 5000), // > maxBlockSize, multi-block
		"incompressible":       rnd,
		"run then random tail": append(bytes.Repeat([]byte{9}, 300), rnd[:64]...),
		"block boundary":       bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, maxBlockSize/8+3),
	}
	for name, src := range cases {
		enc := roundTrip(t, src)
		t.Logf("%s: %d -> %d bytes", name, len(src), len(enc))
	}
	// A run compresses to ~3 bytes per 64 (one copy element per max-length
	// chunk), so a 10k run must land well under a tenth of its size.
	if enc := AppendEncoded(nil, bytes.Repeat([]byte{7}, 10_000)); len(enc) > 1000 {
		t.Errorf("10k run compressed to %d bytes; expected RLE-tight output", len(enc))
	}
}

// TestAppendDecodedReusesAndKeepsPrefix covers what Decode alone does not:
// decompressing onto a buffer that already holds something. Back-references
// must resolve against the block's own output, never the prefix; a second
// block goes after the first; a buffer with room is not reallocated; and a
// corrupt block hands the buffer back at the length it came in with.
func TestAppendDecodedReusesAndKeepsPrefix(t *testing.T) {
	first := bytes.Repeat([]byte("abcdefgh"), 600)
	second := bytes.Repeat([]byte{7}, 3000)
	buf := append(make([]byte, 0, 16<<10), "prefix"...)
	backing := &buf[:1][0]
	for _, src := range [][]byte{first, second} {
		base := len(buf)
		var err error
		if buf, err = AppendDecoded(buf, AppendEncoded(nil, src)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[base:], src) {
			t.Fatalf("block appended at %d did not round-trip", base)
		}
	}
	if string(buf[:6]) != "prefix" || !bytes.Equal(buf[6:6+len(first)], first) {
		t.Fatal("appending a block disturbed what the buffer already held")
	}
	if &buf[0] != backing {
		t.Fatal("a buffer with capacity to spare was reallocated")
	}
	before := len(buf)
	// Its first copy reaches two bytes back with one byte of output: into
	// the prefix, were offsets not relative to the block's own start.
	bad := []byte{8, 0x00 | 0<<2, 'a', byte(3)<<2 | tagCopy2, 2, 0}
	got, err := AppendDecoded(buf, bad)
	if err == nil {
		t.Fatal("copy reaching before the block's own output decoded without error")
	}
	if len(got) != before {
		t.Fatalf("failed decode returned the buffer at length %d, came in at %d", len(got), before)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":                 {},
		"huge length claim":     {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00}, // plausibility check
		"over hard cap":         append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		"truncated literal":     {10, 0x00 | 8<<2, 'a', 'b'}, // claims 9 literal bytes, has 2
		"copy before output":    {4, byte(3)<<2 | tagCopy2, 1, 0},
		"copy offset zero":      {8, 0x00 | 3<<2, 'a', 'b', 'c', 'd', byte(3)<<2 | tagCopy2, 0, 0},
		"short of claimed":      {100, 0x00 | 3<<2, 'a', 'b', 'c', 'd'},
		"literal overruns dLen": {2, 0x00 | 7<<2, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'},
		"truncated copy2":       {8, 0x00 | 3<<2, 'a', 'b', 'c', 'd', byte(3)<<2 | tagCopy2, 1},
	}
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEncoded(nil, []byte("seed corpus text for the snappy fuzzer")))
	f.Add(AppendEncoded(nil, bytes.Repeat([]byte("abcd"), 100)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Must never panic; on success the output length must match the header.
		dec, err := Decode(b)
		if err != nil {
			return
		}
		dLen, _, err2 := DecodedLen(b)
		if err2 != nil || len(dec) != dLen {
			t.Fatalf("decode succeeded but header disagrees: %d vs %d (%v)", len(dec), dLen, err2)
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("the quick brown fox"))
	f.Add(bytes.Repeat([]byte{0}, 2000))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := AppendEncoded(nil, src)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(src), len(dec))
		}
	})
}
