package data

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
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

func TestColumnarRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := map[string][]Record{
		"nil":              nil,
		"single":           {{Key: 1, Val: 2, Time: 3, Payload: []byte("p")}},
		"random":           randRecords(r, 500),
		"sorted aggregate": nil, // filled below
	}
	sorted := make([]Record, 300)
	for i := range sorted {
		sorted[i] = Record{Key: uint64(i * 7), Val: 1, Time: 1_000_000 + int64(i)}
	}
	cases["sorted aggregate"] = sorted

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

func TestColumnarMatchesRowDecode(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	recs := randRecords(r, 200)
	row, _, err := DecodeBatch(EncodeBatch(nil, recs))
	if err != nil {
		t.Fatal(err)
	}
	col, _, err := DecodeBatch(EncodeBatchColumnar(nil, recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, col) {
		t.Fatal("row and columnar decodes of the same records diverge")
	}
}

func TestColumnarSmallerOnAggregates(t *testing.T) {
	// The motivating shape: sorted keys, val 1, near-constant times, no
	// payload — combiner output. Row layout spends 28 bytes per record.
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{Key: uint64(i * 3), Val: 1, Time: 1_700_000_000_000_000_000}
	}
	row := len(EncodeBatch(nil, recs))
	col := len(EncodeBatchColumnar(nil, recs))
	if col*4 > row {
		t.Errorf("columnar %d bytes vs row %d; expected >= 4x shrink on aggregates", col, row)
	}
	t.Logf("aggregate batch: row %d bytes, columnar %d bytes (%.1fx)", row, col, float64(row)/float64(col))
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
	cases := map[string][]byte{
		"sentinel only":      good[:4],
		"unknown format":     {0xFF, 0xFF, 0xFF, 0xFF, 99},
		"truncated count":    good[:5],
		"truncated columns":  good[:len(good)/2],
		"implausible count":  {0xFF, 0xFF, 0xFF, 0xFF, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"huge payload claim": append(append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, 1, 0, 0), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, in := range cases {
		if _, _, err := DecodeBatch(in); err == nil {
			t.Errorf("%s: decoded without error", name)
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
	if gotN != wantN || batch.size != wantN {
		t.Fatalf("consumed %d (DecodeBatch) / %d (OpenBatch) bytes, reference %d", gotN, batch.size, wantN)
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

// formatsOf returns recs in all three block formats: row, columnar, and the
// snappy envelope around each (forced, so small batches get one too).
func formatsOf(recs []Record) map[string][]byte {
	row, col := EncodeBatch(nil, recs), EncodeBatchColumnar(nil, recs)
	out := map[string][]byte{"row": row, "columnar": col}
	for name, plain := range map[string][]byte{"snappy(row)": row, "snappy(columnar)": col} {
		env := binary.LittleEndian.AppendUint32(nil, formatSentinel)
		out[name] = snappy.AppendEncoded(append(env, formatCompressed), plain)
	}
	return out
}

// TestStreamingReaderMatchesReference is the differential test behind the
// refactor: whatever the old validate-while-materialising decoder made of a
// byte string — well-formed batches in every format, and the same batches
// truncated and bit-flipped — the in-place reader makes of it too.
func TestStreamingReaderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	shapes := map[string][]Record{
		"empty":   nil,
		"random":  randRecords(r, 300), // payloads, negative key and time deltas
		"sorted":  make([]Record, 500),
		"extreme": {{Key: ^uint64(0), Val: -1 << 63, Time: -1 << 63}, {Key: 0, Val: 1<<63 - 1, Time: 1<<63 - 1}, {}},
	}
	for i := range shapes["sorted"] {
		shapes["sorted"][i] = Record{Key: uint64(i * 7), Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)*1000}
	}
	for shape, recs := range shapes {
		for format, enc := range formatsOf(recs) {
			t.Run(shape+"/"+format, func(t *testing.T) {
				if got := checkAgainstReference(t, enc); len(got) != len(recs) {
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
// block encoded through an index is byte for byte the block encoded from
// the records copied out in that order.
func TestAppendColumnarSelectsThroughIndex(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	recs := randRecords(r, 400)
	for _, n := range []int{0, 1, 57, 400} {
		idx := make([]uint32, n)
		picked := make([]Record, n)
		for j := range idx {
			idx[j] = uint32(r.Intn(len(recs)))
			picked[j] = recs[idx[j]]
		}
		prefix := []byte("prefix")
		got := AppendColumnar(append([]byte(nil), prefix...), recs, idx)
		want := EncodeBatchColumnar(append([]byte(nil), prefix...), picked)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d selected records: indexed encoding differs from encoding the copies", n)
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	r := rand.New(rand.NewSource(6))
	recs := randRecords(r, 40)
	f.Add(EncodeBatch(nil, recs))
	f.Add(EncodeBatchColumnar(nil, recs))
	f.Add(EncodeBatchColumnar(nil, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 3})
	agg := make([]Record, 200)
	for i := range agg {
		agg[i] = Record{Key: uint64(i), Val: 1, Time: 1_700_000_000_000_000_000}
	}
	f.Add(CompressBatch(EncodeBatchColumnar(nil, agg), 1<<7))
	for _, enc := range formatsOf(recs[:5]) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The streaming reader and the reference decoder agree on every
		// input, and neither panics.
		recs := checkAgainstReference(t, b)
		if recs == nil {
			return
		}
		// A successful decode re-encodes (columnar) to something that decodes
		// back to the same records.
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
