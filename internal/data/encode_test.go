package data

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"drizzle/internal/snappy"
)

func randRecords(r *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Key:  r.Uint64(),
			Val:  int64(r.Uint64()),
			Time: int64(r.Uint64()),
		}
		if r.Intn(3) == 0 {
			recs[i].Payload = make([]byte, 1+r.Intn(100))
			r.Read(recs[i].Payload)
		}
	}
	return recs
}

// hotKeyRecords returns n records whose keys are drawn, Zipf-skewed, from
// distinct hashed keys, with val 1 and rising times: the sessions-groupby
// shape, whose blocks take dictionary keys.
func hotKeyRecords(r *rand.Rand, n, distinct int) []Record {
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	z := rand.NewZipf(r, 1.2, 1, uint64(distinct-1))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: keys[z.Uint64()], Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)*16_000}
	}
	return recs
}

// keyForm reports whether enc, a plain v2 batch, carries dictionary keys.
func hasDictKeys(enc []byte) bool {
	_, n := binary.Uvarint(enc[5:])
	return enc[5+n]&flagDictKeys != 0
}

func TestColumnarRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := map[string][]Record{
		"nil":              nil,
		"single":           {{Key: 1, Val: 2, Time: 3, Payload: []byte("p")}},
		"random":           randRecords(r, 500),
		"sorted aggregate": nil, // filled below
		"one val, empty payloads": {
			{Key: 5, Val: 7, Payload: []byte{}}, {Key: 5, Val: 7, Time: -9},
		},
	}
	sorted := make([]Record, 300)
	for i := range sorted {
		sorted[i] = Record{Key: uint64(i * 7), Val: 1, Time: 1_000_000 + int64(i)}
	}
	cases["sorted aggregate"] = sorted
	cases["hot keys"] = hotKeyRecords(r, 3000, 1000)
	cases["hot keys, payloads"] = randRecords(r, 200)
	for i := range cases["hot keys, payloads"] {
		cases["hot keys, payloads"][i].Key = uint64(i % 3)
	}

	for name, recs := range cases {
		enc := EncodeBatchColumnar(nil, recs)
		got, n, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(enc) {
			t.Errorf("%s: consumed %d of %d bytes", name, n, len(enc))
		}
		want := recs
		if len(want) == 0 {
			want = []Record{} // DecodeBatch returns an empty non-nil slice for count 0
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Val != want[i].Val ||
				got[i].Time != want[i].Time || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("%s: record %d mismatch: got %+v want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestColumnarMatchesRowDecode: v2 carries exactly the records the layouts
// before it did, as their own decoder read them.
func TestColumnarMatchesRowDecode(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	recs := randRecords(r, 200)
	col, _, err := DecodeBatch(EncodeBatchColumnar(nil, recs))
	if err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string][]byte{"row": legacyEncodeRow(recs), "v1": legacyEncodeV1(recs)} {
		was, _, err := legacyDecodeBatch(old)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(was, col) {
			t.Fatalf("%s and v2 decodes of the same records diverge", name)
		}
	}
}

// TestColumnarSmallerOnAggregates pins what v2 makes of the aggregation
// shape (val 1, no payload, near-constant times): eight bytes of key, one of
// time delta, and nothing else per record — the val column is one byte for
// the batch and the payload columns are left out.
func TestColumnarSmallerOnAggregates(t *testing.T) {
	const n = 1000
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(i * 3), Val: 1, Time: 1_700_000_000_000_000_000}
	}
	row := len(legacyEncodeRow(recs))
	col := len(EncodeBatchColumnar(nil, recs))
	header := 4 + 1 + len(binary.AppendUvarint(nil, n)) + 1
	firstTime := len(binary.AppendVarint(nil, recs[0].Time))
	if want := header + 8*n + firstTime + (n - 1) + 1; col != want {
		t.Errorf("aggregate batch is %d bytes, want %d", col, want)
	}
	t.Logf("aggregate batch: row %d bytes, v2 %d bytes (%.1fx)", row, col, float64(row)/float64(col))
}

func TestCompressBatchRoundTrip(t *testing.T) {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i), Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)}
	}
	plain := EncodeBatchColumnar(nil, recs)
	comp := CompressBatch(plain, 1<<10)
	if len(comp) >= len(plain) {
		t.Fatalf("compressible batch did not shrink: %d -> %d", len(plain), len(comp))
	}
	got, n, err := DecodeBatch(comp)
	if err != nil {
		t.Fatalf("decode compressed batch: %v", err)
	}
	if n != len(comp) {
		t.Fatalf("consumed %d of %d bytes", n, len(comp))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("compressed round trip changed records")
	}

	// Below threshold or with compression disabled, bytes pass through.
	if small := CompressBatch(plain, len(plain)+1); !bytes.Equal(small, plain) {
		t.Fatal("below-threshold batch was rewritten")
	}
	if off := CompressBatch(plain, 0); !bytes.Equal(off, plain) {
		t.Fatal("threshold 0 should disable compression")
	}

	// A format-2 body nested inside a format-2 envelope must be rejected:
	// one decompression per batch.
	nested := CompressBatch(append([]byte(nil), comp...), 1)
	if bytes.Equal(nested, comp) {
		t.Skip("nested envelope did not shrink; cannot construct test case")
	}
	if _, _, err := DecodeBatch(nested); err == nil {
		t.Fatal("nested compressed batch decoded without error")
	}
}

func TestDecodeBatchRejectsCorruptColumnar(t *testing.T) {
	good := EncodeBatchColumnar(nil, randRecords(rand.New(rand.NewSource(5)), 50))
	v2 := func(tail ...byte) []byte { return append([]byte{0xFF, 0xFF, 0xFF, 0xFF, formatV2}, tail...) }
	cases := map[string][]byte{
		"sentinel only":     good[:4],
		"unknown format":    {0xFF, 0xFF, 0xFF, 0xFF, 99},
		"truncated count":   good[:5],
		"missing flags":     v2(0),
		"unknown flags":     v2(0, 8),
		"truncated columns": good[:len(good)/2],
		"implausible count": v2(0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0),
		"keys do not fit":   v2(2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
		"missing val":       v2(1, flagConstVal, 1, 2, 3, 4, 5, 6, 7, 8, 0),
		"huge payload claim": v2(1, flagConstVal|flagPayloads, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0,
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"eleven-byte varint": v2(1, 0, 1, 2, 3, 4, 5, 6, 7, 8,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0),
		// Dictionary keys: count, flags, d, d keys, count indices, times, val.
		"index out of range":    v2(2, flagDictKeys|flagConstVal, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 0, 0, 2),
		"empty dictionary":      v2(2, flagDictKeys|flagConstVal, 0, 0, 0, 0, 0, 2),
		"dictionary over count": v2(1, flagDictKeys|flagConstVal, 2, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 2),
		"dictionary past end":   v2(2, flagDictKeys|flagConstVal, 2, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3),
		"truncated indices":     v2(3, flagDictKeys|flagConstVal, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0x80),
		"count with no indices": v2(0xFF, 0x01, flagDictKeys, 1, 1, 2, 3, 4, 5, 6, 7, 8),
	}
	// Each of the dictionary cases is one change away from a valid batch.
	if _, _, err := DecodeBatch(v2(2, flagDictKeys|flagConstVal, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 2)); err != nil {
		t.Fatalf("valid dictionary batch: %v", err)
	}
	for name, in := range cases {
		if _, _, err := DecodeBatch(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestSkipVarintsMatchesUvarint holds the word-at-a-time skip-scan to
// binary.Uvarint applied one value at a time: over streams of every varint
// length (including the ten-byte ones and the eleven-byte and overflowing
// ones Uvarint rejects), from every start offset and for every count, the
// same end offset and the same number of values got through.
func TestSkipVarintsMatchesUvarint(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		var b []byte
		for v := 0; v < 1+r.Intn(12); v++ {
			switch r.Intn(8) {
			case 0: // a long run of continuation bytes, maybe ended
				for k := 8 + r.Intn(5); k > 0; k-- {
					b = append(b, 0x80|byte(r.Intn(128)))
				}
				if r.Intn(2) == 0 {
					b = append(b, byte(r.Intn(4)))
				}
			default:
				b = binary.AppendUvarint(b, r.Uint64()>>uint(r.Intn(64)))
			}
		}
		for off := 0; off <= len(b); off++ {
			for count := 0; count <= 13; count++ {
				wantOff, wantDone := off, 0
				for wantDone < count {
					_, n := binary.Uvarint(b[wantOff:])
					if n <= 0 {
						break
					}
					wantOff += n
					wantDone++
				}
				gotOff, gotDone := skipVarints(b, off, count)
				if gotDone != wantDone || gotOff != wantOff {
					t.Fatalf("% x from %d, count %d: skipVarints = (%d, %d), Uvarint walk = (%d, %d)",
						b, off, count, gotOff, gotDone, wantOff, wantDone)
				}
			}
		}
	}
}

// TestTrustedUvarintMatchesUvarint: the unchecked decode behind BatchIter
// reads every valid varint — every length, with any bytes after it, at the
// end of the input or not — as binary.Uvarint does.
func TestTrustedUvarintMatchesUvarint(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		v := r.Uint64() >> uint(r.Intn(64))
		b := make([]byte, r.Intn(3))
		r.Read(b)
		off := len(b)
		b = binary.AppendUvarint(b, v)
		tail := make([]byte, r.Intn(12))
		r.Read(tail)
		b = append(b, tail...)
		want, n := binary.Uvarint(b[off:])
		got, end := trustedUvarint(b, off)
		if got != want || end != off+n {
			t.Fatalf("% x at %d: trustedUvarint = (%d, %d), Uvarint = (%d, %d)", b, off, got, end, want, off+n)
		}
	}
}

// checkAgainstReference holds every way of reading b — OpenBatch with Len,
// Iter and AppendTo, and DecodeBatch on top of them — to referenceDecodeBatch:
// the same accept/reject verdict and, when accepted, the same records and
// byte count. It returns the records (nil when b is rejected).
func checkAgainstReference(t *testing.T, b []byte) []Record {
	t.Helper()
	want, wantN, wantErr := referenceDecodeBatch(b)

	// The inflate buffer starts non-empty: OpenBatch appends, and what was
	// there must survive.
	inflate := []byte("kept")
	batch, err := OpenBatch(b, &inflate)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("OpenBatch err=%v, reference err=%v", err, wantErr)
	}
	if string(inflate[:4]) != "kept" {
		t.Fatalf("OpenBatch overwrote the caller's inflate prefix: %q", inflate[:4])
	}
	// Decompression is sized by snappy's own plausibility rule (at most 32x
	// the compressed body), never by a count the batch claims.
	if len(inflate) > 4+32*len(b)+64 {
		t.Fatalf("inflated %d bytes from a %d-byte batch", len(inflate)-4, len(b))
	}
	got, gotN, decErr := DecodeBatch(b)
	if (decErr != nil) != (wantErr != nil) {
		t.Fatalf("DecodeBatch err=%v, reference err=%v", decErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	if gotN != wantN || batch.Size() != wantN {
		t.Fatalf("consumed %d (DecodeBatch) / %d (OpenBatch) bytes, reference %d", gotN, batch.Size(), wantN)
	}
	if batch.Len() != len(want) {
		t.Fatalf("Len() = %d, reference decoded %d records", batch.Len(), len(want))
	}
	i := 0
	for it := batch.Iter(); it.Next(); i++ {
		if i >= len(want) || it.Key != want[i].Key || it.Val != want[i].Val || it.Time != want[i].Time {
			t.Fatalf("Iter record %d = (%d, %d, %d), reference %+v", i, it.Key, it.Val, it.Time, want)
		}
	}
	if i != len(want) {
		t.Fatalf("Iter yielded %d records, reference %d", i, len(want))
	}
	// AppendTo onto a slice with stale spare capacity: what it appends must
	// not depend on what the memory held.
	stale := make([]Record, 1+len(want))
	for j := range stale {
		stale[j] = Record{Key: 99, Val: 99, Time: 99, Payload: []byte("stale")}
	}
	appended := batch.AppendTo(stale[:1])[1:]
	for name, recs := range map[string][]Record{"DecodeBatch": got, "AppendTo": appended} {
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, reference %d", name, len(recs), len(want))
		}
		for j := range want {
			if recs[j].Key != want[j].Key || recs[j].Val != want[j].Val || recs[j].Time != want[j].Time ||
				!bytes.Equal(recs[j].Payload, want[j].Payload) || (recs[j].Payload == nil) != (want[j].Payload == nil) {
				t.Fatalf("%s: record %d = %+v, reference %+v", name, j, recs[j], want[j])
			}
		}
	}
	return got
}

// envelope wraps plain in the snappy envelope whatever its size.
func envelope(plain []byte) []byte {
	env := binary.LittleEndian.AppendUint32(nil, formatSentinel)
	return snappy.AppendEncoded(append(env, formatCompressed), plain)
}

// formatsOf returns recs as a block is stored: plain v2, and inside the
// snappy envelope (forced, so small batches get one too).
func formatsOf(recs []Record) map[string][]byte {
	col := EncodeBatchColumnar(nil, recs)
	return map[string][]byte{"columnar": col, "snappy(columnar)": envelope(col)}
}

// staleFormatsOf returns recs in the layouts before v2, plain and inside the
// envelope: blocks a reader must now reject.
func staleFormatsOf(recs []Record) map[string][]byte {
	row, v1 := legacyEncodeRow(recs), legacyEncodeV1(recs)
	return map[string][]byte{"row": row, "snappy(row)": envelope(row), "v1": v1, "snappy(v1)": envelope(v1)}
}

// TestStreamingReaderMatchesReference is the differential test behind the
// reader: whatever the independent reference decoder makes of a byte string
// — well-formed batches, the stale layouts, and the same truncated, extended
// and bit-flipped — the in-place reader makes of it too.
func TestStreamingReaderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	shapes := map[string][]Record{
		"empty":    nil,
		"random":   randRecords(r, 300), // payloads, negative time deltas, ten-byte varints
		"sorted":   make([]Record, 500),
		"extreme":  {{Key: ^uint64(0), Val: -1 << 63, Time: -1 << 63}, {Key: 0, Val: 1<<63 - 1, Time: 1<<63 - 1}, {}},
		"hot keys": hotKeyRecords(r, 1500, 1000), // dictionary keys, one- and two-byte indices
		"one key":  hotKeyRecords(r, 50, 1),
	}
	for _, shape := range []string{"hot keys", "one key"} {
		if !hasDictKeys(EncodeBatchColumnar(nil, shapes[shape])) {
			t.Fatalf("%s: encoded with raw keys, the shape is here for the dictionary form", shape)
		}
	}
	for i := range shapes["sorted"] {
		shapes["sorted"][i] = Record{Key: uint64(i * 7), Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)*1000}
	}
	for shape, recs := range shapes {
		current, stale := formatsOf(recs), staleFormatsOf(recs)
		for format, enc := range stale {
			current[format] = enc
		}
		for format, enc := range current {
			t.Run(shape+"/"+format, func(t *testing.T) {
				got := checkAgainstReference(t, enc)
				if _, isStale := stale[format]; isStale {
					if got != nil {
						t.Fatalf("a %s block decoded to %d records", format, len(got))
					}
				} else if len(got) != len(recs) {
					t.Fatalf("decoded %d records, encoded %d", len(got), len(recs))
				}
				for trial := 0; trial < 200; trial++ {
					bad := append([]byte(nil), enc...)
					switch trial % 3 {
					case 0:
						bad = bad[:r.Intn(len(bad)+1)]
					case 1:
						bad[r.Intn(len(bad))] ^= 1 << r.Intn(8)
					default:
						bad = append(bad, byte(r.Intn(256)))
					}
					checkAgainstReference(t, bad)
				}
			})
		}
	}
}

// TestStaleFormatsRejected: a block in the row layout or in format 1 — which
// the old decoder reads back to the records — is refused as an unknown
// format, plain or compressed, instead of being misread.
func TestStaleFormatsRejected(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(16)), 40)
	for format, enc := range staleFormatsOf(recs) {
		if was, _, err := legacyDecodeBatch(enc); err != nil || !reflect.DeepEqual(was, recs) {
			t.Fatalf("%s: the old decoder does not read the block back (%v)", format, err)
		}
		if _, err := OpenBatch(enc, nil); err == nil || !strings.Contains(err.Error(), "unknown batch format") {
			t.Errorf("%s: OpenBatch err = %v, want an unknown batch format", format, err)
		}
		if _, _, err := DecodeBatch(enc); err == nil {
			t.Errorf("%s: DecodeBatch accepted a stale block", format)
		}
	}
}

// TestOpenBatchDoesNotAllocate pins the property the reduce side is built
// on: opening and walking a block allocates nothing — not from the record
// count, not per record — once the inflate buffer has its size.
func TestOpenBatchDoesNotAllocate(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(13)), 2000)
	for format, enc := range formatsOf(recs) {
		var inflate []byte
		var sum uint64
		allocs := testing.AllocsPerRun(10, func() {
			inflate = inflate[:0]
			batch, err := OpenBatch(enc, &inflate)
			if err != nil {
				t.Fatal(err)
			}
			for it := batch.Iter(); it.Next(); {
				sum += it.Key
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per open+walk of %d records, want 0", format, allocs, len(recs))
		}
	}
}

// TestAppendColumnarSelectsThroughIndex checks the map side's encoder: a
// block encoded through an index by an Encoder reused from block to block
// is byte for byte the block encoded from the records copied out in that
// order by a fresh one.
func TestAppendColumnarSelectsThroughIndex(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var e Encoder
	for _, recs := range [][]Record{randRecords(r, 400), hotKeyRecords(r, 400, 50)} {
		for _, n := range []int{0, 1, 57, 400, 3} {
			idx := make([]uint32, n)
			picked := make([]Record, n)
			for j := range idx {
				idx[j] = uint32(r.Intn(len(recs)))
				picked[j] = recs[idx[j]]
			}
			prefix := []byte("prefix")
			got, dict := e.AppendColumnar(append([]byte(nil), prefix...), recs, idx)
			want := EncodeBatchColumnar(append([]byte(nil), prefix...), picked)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d selected records: indexed encoding differs from encoding the copies", n)
			}
			if n > 0 && dict != hasDictKeys(got[len(prefix):]) {
				t.Fatalf("%d selected records: AppendColumnar reports dictionary keys %v, the flags say otherwise", n, dict)
			}
		}
	}
}

// TestDictionaryOnlyWhenSmaller: the encoder takes the dictionary form
// exactly when it is smaller than the raw key column, so a batch of
// distinct keys keeps the raw column byte for byte, and a batch whose keys
// repeat enough is smaller than it would be with raw keys.
func TestDictionaryOnlyWhenSmaller(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var e Encoder
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(600)
		recs := hotKeyRecords(r, n, 1+r.Intn(n))
		if trial%3 == 0 {
			recs = randRecords(r, n) // distinct keys
		}
		enc, dict := e.AppendColumnar(nil, recs, nil)
		first := make(map[uint64]int) // key -> index, in first-seen order
		idBytes := 0
		for _, rec := range recs {
			if _, ok := first[rec.Key]; !ok {
				first[rec.Key] = len(first)
			}
			idBytes += len(binary.AppendUvarint(nil, uint64(first[rec.Key])))
		}
		d := len(first)
		dictBytes := len(binary.AppendUvarint(nil, uint64(d))) + 8*d + idBytes
		if want := dictBytes < 8*n; dict != want || hasDictKeys(enc) != want {
			t.Fatalf("%d records, %d distinct keys: dictionary form %v (flag %v), want %v (%d B against %d raw)",
				n, d, dict, hasDictKeys(enc), want, dictBytes, 8*n)
		}
		if d == n && dict {
			t.Fatalf("%d distinct keys took the dictionary form", n)
		}
		if raw := len(enc) - dictBytes + 8*n; dict && len(enc) >= raw {
			t.Fatalf("dictionary batch of %d B is not smaller than its raw form, %d B", len(enc), raw)
		}
		if got, _, err := DecodeBatch(enc); err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("%d records, %d distinct keys: round trip failed (%v)", n, d, err)
		}
	}
}

// TestEncodedSizeIsNeverRegrown: a dst with EncodedSize spare capacity is
// never reallocated, whichever key form the encoder takes and however many
// of the keys repeat. The benchmark's replay sizes its buffer this way.
func TestEncodedSizeIsNeverRegrown(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var e Encoder
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(700)
		recs := hotKeyRecords(r, n, 1+r.Intn(n))
		for i := range recs {
			switch trial % 4 {
			case 1: // varying vals, ten-byte times
				recs[i].Val, recs[i].Time = int64(r.Uint64()), int64(r.Uint64())
			case 2: // payloads
				if r.Intn(2) == 0 {
					recs[i].Payload = make([]byte, r.Intn(30))
				}
			case 3: // one key for every record
				recs[i].Key = 7
			}
		}
		for _, enc := range []func([]byte) []byte{
			func(dst []byte) []byte { return EncodeBatchColumnar(dst, recs) },
			func(dst []byte) []byte { dst, _ = e.AppendColumnar(dst, recs, nil); return dst },
		} {
			dst := make([]byte, 3, 3+EncodedSize(recs))
			out := enc(dst)
			if &out[0] != &dst[0] || cap(out) != cap(dst) {
				t.Fatalf("trial %d: %d records, %d-byte encoding outgrew EncodedSize %d", trial, n, len(out)-3, EncodedSize(recs))
			}
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	r := rand.New(rand.NewSource(6))
	recs := randRecords(r, 40)
	f.Add(legacyEncodeRow(recs))
	f.Add(EncodeBatchColumnar(nil, recs))
	f.Add(EncodeBatchColumnar(nil, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, formatV2, 3, flagConstVal | flagPayloads})
	agg := make([]Record, 200)
	for i := range agg {
		agg[i] = Record{Key: uint64(i), Val: 1, Time: 1_700_000_000_000_000_000}
	}
	f.Add(CompressBatch(EncodeBatchColumnar(nil, agg), 1<<7))
	for _, formats := range []map[string][]byte{formatsOf(recs[:5]), staleFormatsOf(recs[:5])} {
		for _, enc := range formats {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The streaming reader and the reference decoder agree on every
		// input, and neither panics.
		recs := checkAgainstReference(t, b)
		if recs == nil {
			return
		}
		// A successful decode re-encodes to something that decodes back to
		// the same records.
		enc := EncodeBatchColumnar(nil, recs)
		again, _, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decode count %d, want %d", len(again), len(recs))
		}
		for i := range recs {
			if recs[i].Key != again[i].Key || recs[i].Val != again[i].Val ||
				recs[i].Time != again[i].Time || !bytes.Equal(recs[i].Payload, again[i].Payload) {
				t.Fatalf("record %d not a fixed point", i)
			}
		}
	})
}
