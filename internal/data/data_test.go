package data

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHashStringDeterministic(t *testing.T) {
	if HashString("campaign-17") != HashString("campaign-17") {
		t.Fatal("HashString not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial collision between distinct keys")
	}
}

// TestHashBytesMatchesHashString: a key hashed in a payload must land on the
// same reducer, and resolve in the same Dictionary, as the string would.
func TestHashBytesMatchesHashString(t *testing.T) {
	f := func(b []byte) bool { return HashBytes(b) == HashString(string(b)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	h := d.Add("session-42")
	if got, ok := d.Lookup(h); !ok || got != "session-42" {
		t.Fatalf("Lookup(%d) = %q, %v; want session-42, true", h, got, ok)
	}
	if _, ok := d.Lookup(h + 1); ok {
		t.Fatal("Lookup of unregistered hash succeeded")
	}
	if d.Add("session-42") != h {
		t.Fatal("re-adding a key changed its hash")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDictionaryStringsOrder(t *testing.T) {
	d := NewDictionary()
	want := []string{"c", "a", "b"}
	for _, s := range want {
		d.Add(s)
	}
	if got := d.Strings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Strings() = %v, want %v", got, want)
	}
}

func TestHashPartitionerRange(t *testing.T) {
	p := NewHashPartitioner(7)
	for i := 0; i < 10000; i++ {
		idx := p.Partition(uint64(i))
		if idx < 0 || idx >= 7 {
			t.Fatalf("Partition(%d) = %d out of range", i, idx)
		}
	}
}

func TestHashPartitionerUniformity(t *testing.T) {
	const n, keys = 16, 160000
	p := NewHashPartitioner(n)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[p.Partition(uint64(i))]++
	}
	want := keys / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("partition %d has %d keys, want within 20%% of %d", i, c, want)
		}
	}
}

func TestHashPartitionerPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHashPartitioner(0) did not panic")
		}
	}()
	NewHashPartitioner(0)
}

func TestPartitionRecordsCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{Key: rng.Uint64(), Val: int64(i)}
	}
	p := NewHashPartitioner(5)
	parts := PartitionRecords(recs, p)
	if len(parts) != 5 {
		t.Fatalf("got %d partitions, want 5", len(parts))
	}
	total := 0
	for idx, part := range parts {
		total += len(part)
		for _, r := range part {
			if p.Partition(r.Key) != idx {
				t.Fatalf("record with key %d in wrong partition %d", r.Key, idx)
			}
		}
	}
	if total != len(recs) {
		t.Fatalf("partitioning lost records: %d != %d", total, len(recs))
	}
}

// TestPartitionIndexMatchesAppendPartitioning holds the index (and
// PartitionRecords on top of it) to the obvious append-per-record
// partitioning: same groups, source order kept within each, empty partitions
// present and non-nil — across rebuilds of one index with changing sizes and
// partition counts, which is how an executor slot uses it.
func TestPartitionIndexMatchesAppendPartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x PartitionIndex
	for _, c := range []struct{ n, parts int }{{1000, 5}, {0, 3}, {7, 16}, {5000, 4}, {300, 1}, {1, 2}} {
		recs := make([]Record, c.n)
		for i := range recs {
			recs[i] = Record{Key: rng.Uint64() % 64, Val: int64(i)}
		}
		p := NewHashPartitioner(c.parts)
		want := make([][]Record, c.parts)
		for _, r := range recs {
			want[p.Partition(r.Key)] = append(want[p.Partition(r.Key)], r)
		}
		x.Build(recs, p)
		got := PartitionRecords(recs, p)
		if x.NumPartitions() != c.parts || len(got) != c.parts {
			t.Fatalf("%d records: %d / %d partitions, want %d", c.n, x.NumPartitions(), len(got), c.parts)
		}
		for r := 0; r < c.parts; r++ {
			part := x.Part(r)
			if got[r] == nil || len(part) != len(want[r]) || len(got[r]) != len(want[r]) {
				t.Fatalf("%d records, partition %d: index has %d, PartitionRecords %d (nil=%v), want %d",
					c.n, r, len(part), len(got[r]), got[r] == nil, len(want[r]))
			}
			for j, i := range part {
				if recs[i].Val != want[r][j].Val || got[r][j].Val != want[r][j].Val {
					t.Fatalf("%d records, partition %d, position %d: index -> %d, PartitionRecords -> %d, want %d",
						c.n, r, j, recs[i].Val, got[r][j].Val, want[r][j].Val)
				}
			}
		}
	}
}

func TestEncodeDecodeBatch(t *testing.T) {
	recs := []Record{
		{Key: 1, Val: -5, Time: 12345, Payload: []byte("hello")},
		{Key: 2, Val: 1 << 40, Time: -1},
		{},
	}
	buf := make([]byte, 0, EncodedSize(recs))
	b := EncodeBatchColumnar(buf, recs)
	if len(b) > EncodedSize(recs) || &b[0] != &buf[:1][0] {
		t.Fatalf("EncodedSize = %d, but the encoding took %d bytes (reallocated: %v)", EncodedSize(recs), len(b), &b[0] != &buf[:1][0])
	}
	got, n, err := DecodeBatch(b)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if n != len(b) {
		t.Fatalf("DecodeBatch consumed %d of %d bytes", n, len(b))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Key != recs[i].Key || got[i].Val != recs[i].Val || got[i].Time != recs[i].Time {
			t.Fatalf("record %d mismatch: %v != %v", i, got[i], recs[i])
		}
		if string(got[i].Payload) != string(recs[i].Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestDecodeBatchRejectsCorrupt(t *testing.T) {
	recs := []Record{{Key: 9, Val: 9, Payload: []byte("abcdef")}, {Key: 1, Val: 3, Time: 1 << 40}}
	b := EncodeBatchColumnar(nil, recs)
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := DecodeBatch(b[:cut]); err == nil {
			t.Fatalf("DecodeBatch accepted truncation at %d bytes", cut)
		}
	}
}

// TestEncodeDecodeQuick property-tests that encode/decode round-trips for
// arbitrary record batches.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(keys []uint64, vals []int64, payload []byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{Key: keys[i], Val: vals[i], Time: int64(i)}
			if i%3 == 0 {
				recs[i].Payload = payload
			}
		}
		b := EncodeBatchColumnar(make([]byte, 0, EncodedSize(recs)), recs)
		got, consumed, err := DecodeBatch(b)
		if len(b) > EncodedSize(recs) {
			return false
		}
		if err != nil || consumed != len(b) || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i].Key != recs[i].Key || got[i].Val != recs[i].Val || got[i].Time != recs[i].Time {
				return false
			}
			if string(got[i].Payload) != string(recs[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionerStableQuick property-tests that partition assignment is a
// pure function of the key.
func TestPartitionerStableQuick(t *testing.T) {
	p := NewHashPartitioner(13)
	f := func(key uint64) bool {
		a := p.Partition(key)
		b := p.Partition(key)
		return a == b && a >= 0 && a < 13
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
