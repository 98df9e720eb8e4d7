package shuffle

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"drizzle/internal/data"
)

// goldenInput is one map task's output and the number of reducers it is
// shuffled to (0: a structured shuffle, the whole output in one block).
type goldenInput struct {
	name     string
	recs     []data.Record
	reducers int
}

// goldenInputs are the map outputs behind testdata/golden_blocks.txt. They
// are built from seeded math/rand streams, whose values Go keeps stable, so
// the same records come out on every run.
func goldenInputs() []goldenInput {
	rng := rand.New(rand.NewSource(20260925))
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
	const t0 = int64(1_700_000_100_000_000_000)

	sessions := make([]data.Record, 6000) // hashed Zipf keys, rising times: compressed blocks
	for i := range sessions {
		sessions[i] = data.Record{Key: keys[zipf.Uint64()], Val: 1, Time: t0 + int64(i)*16_000}
	}
	mixed := make([]data.Record, 300) // payloads, negative key and time deltas
	for i := range mixed {
		mixed[i] = data.Record{Key: rng.Uint64(), Val: int64(rng.Uint64()), Time: int64(rng.Uint64())}
		if rng.Intn(3) == 0 {
			mixed[i].Payload = make([]byte, 1+rng.Intn(60))
			rng.Read(mixed[i].Payload)
		}
	}
	aggregates := make([]data.Record, 2500) // sorted combiner output for a tree reduce
	for i := range aggregates {
		aggregates[i] = data.Record{Key: uint64(i * 3), Val: int64(1 + i%7), Time: t0}
	}
	return []goldenInput{
		{"sessions", sessions, 4},
		{"mixed", mixed, 3},
		{"small", sessions[:40], 4}, // below the compression threshold
		{"skewed", aggregates[:1], 5},
		{"empty", nil, 2},
		{"tree", aggregates, 0},
	}
}

// blockDigest is how a stored block is written down in the golden file.
func blockDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d %s", len(b), hex.EncodeToString(sum[:]))
}

// recordsDigest is how what a block holds is written down in the golden
// file, whatever its layout: the sha256 of its decoded records, each as key,
// val, time and payload length in 8-byte little-endian words followed by the
// payload.
func recordsDigest(recs []data.Record) string {
	h := sha256.New()
	var w [32]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(w[0:], r.Key)
		binary.LittleEndian.PutUint64(w[8:], uint64(r.Val))
		binary.LittleEndian.PutUint64(w[16:], uint64(r.Time))
		binary.LittleEndian.PutUint64(w[24:], uint64(len(r.Payload)))
		h.Write(w[:])
		h.Write(r.Payload)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decodeStored returns the records of a stored block: none for an empty
// block, which is stored as zero bytes and never decoded.
func decodeStored(raw []byte) ([]data.Record, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	recs, _, err := data.DecodeBatch(raw)
	return recs, err
}

// TestBlockBytesMatchGolden pins the stored block format twice over, against
// testdata/golden_blocks.txt. The records column was written before block
// format v2 existed, from what the blocks of the layout before it decoded
// to: every stored block must still decode to exactly those records. The
// bytes column pins v2 itself: both the engine's path (PartitionIndex +
// BlockWriter, one reused writer across all inputs as in an executor slot)
// and the kept wrappers must produce those bytes exactly, since fetched
// blocks are served verbatim and a map task re-run in recovery must store
// what the first run did. The engine's path stores an empty block as zero
// bytes, as the golden says; Store.Put stores the empty batch's encoding
// instead, and both hold the empty batch's records. And the sessions input
// — hashed Zipf keys, val 1, rising times: the sessions-groupby shape —
// must stay at most 5.3 stored bytes per record.
func TestBlockBytesMatchGolden(t *testing.T) {
	f, err := os.Open("testdata/golden_blocks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][2]string)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed golden line %q", line)
			}
			golden[fields[0]] = [2]string{fields[1] + " " + fields[2], fields[3]}
		}
	}

	store := NewStore()
	writer := NewBlockWriter()
	var index data.PartitionIndex
	checked := 0
	stored := make(map[string]int) // input -> bytes stored by the engine's path
	emptyBatch := blockDigest(data.EncodeBatchColumnar(nil, nil))
	check := func(name string, id BlockID) {
		t.Helper()
		raw, ok := store.GetRaw(id)
		if !ok {
			t.Fatalf("%s: block was not stored", name)
		}
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden vector", name)
		}
		recs, err := decodeStored(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := recordsDigest(recs); got != want[1] {
			t.Errorf("%s: block decodes to records %s, golden %s", name, got, want[1])
		}
		if id.Job == "wrapper" && len(recs) == 0 {
			want[0] = emptyBatch
		}
		if got := blockDigest(raw); got != want[0] {
			t.Errorf("%s: block is %s, golden %s", name, got, want[0])
		}
		if id.Job == "index" {
			stored[strings.Split(name, "/")[0]] += len(raw)
		}
		checked++
	}
	for _, in := range goldenInputs() {
		if in.reducers == 0 {
			store.PutRaw(BlockID{Job: "index"}, writer.Block(in.recs, nil))
			check(in.name+"/0", BlockID{Job: "index"})
			store.Put(BlockID{Job: "wrapper"}, in.recs)
			check(in.name+"/0", BlockID{Job: "wrapper"})
			continue
		}
		part := data.NewHashPartitioner(in.reducers)
		index.Build(in.recs, part)
		copies := data.PartitionRecords(in.recs, part)
		for r := 0; r < in.reducers; r++ {
			name := fmt.Sprintf("%s/%d", in.name, r)
			store.PutRaw(BlockID{Job: "index", ReducePartition: r}, writer.Block(in.recs, index.Part(r)))
			check(name, BlockID{Job: "index", ReducePartition: r})
			store.Put(BlockID{Job: "wrapper", ReducePartition: r}, copies[r])
			check(name, BlockID{Job: "wrapper", ReducePartition: r})
		}
	}
	if checked != 2*len(golden) {
		t.Errorf("checked %d blocks against %d golden vectors (each twice)", checked, len(golden))
	}
	sessions := goldenInputs()[0]
	perRecord := float64(stored[sessions.name]) / float64(len(sessions.recs))
	t.Logf("%s: %.2f stored bytes per record", sessions.name, perRecord)
	if perRecord > 5.3 {
		t.Errorf("%s: %.2f stored bytes per record, bound 5.3", sessions.name, perRecord)
	}
}
