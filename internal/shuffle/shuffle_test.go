package shuffle

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"drizzle/internal/dag"
	"drizzle/internal/data"
	"drizzle/internal/rpc"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	id := BlockID{Batch: 1, Stage: 0, MapPartition: 2, ReducePartition: 3}
	recs := []data.Record{{Key: 1, Val: 10}, {Key: 2, Val: 20}}
	size := s.Put(id, recs)
	if size <= 0 {
		t.Fatal("Put returned non-positive size")
	}
	raw, ok := s.GetRaw(id)
	if !ok || len(raw) != size {
		t.Fatalf("GetRaw: ok=%v, %d bytes, Put reported %d", ok, len(raw), size)
	}
	got, _, err := data.DecodeBatch(raw)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != 2 || got[0].Val != 10 || got[1].Val != 20 {
		t.Fatalf("stored block decodes to %v", got)
	}
	if _, ok := s.GetRaw(BlockID{Batch: 9}); ok {
		t.Fatal("GetRaw of absent block succeeded")
	}
}

func TestStoreOverwriteAccounting(t *testing.T) {
	s := NewStore()
	id := BlockID{Batch: 1}
	s.PutRaw(id, make([]byte, 100))
	s.PutRaw(id, make([]byte, 40))
	if n, b := s.Stats(); n != 1 || b != 40 {
		t.Fatalf("Stats = %d blocks, %d bytes; want 1, 40", n, b)
	}
}

func TestStorePurgeBefore(t *testing.T) {
	s := NewStore()
	for batch := int64(0); batch < 10; batch++ {
		s.PutRaw(BlockID{Batch: batch}, make([]byte, 10))
	}
	freed := s.PurgeBefore(7)
	if freed != 70 {
		t.Fatalf("PurgeBefore freed %d bytes, want 70", freed)
	}
	if n, b := s.Stats(); n != 3 || b != 30 {
		t.Fatalf("Stats after purge = %d, %d", n, b)
	}
	if _, ok := s.GetRaw(BlockID{Batch: 7}); !ok {
		t.Fatal("purge removed a batch it should have kept")
	}
}

// TestEmptySelectionStoresNothing: a block of no records is never encoded.
// Block and CombinedBlock of an empty selection — an empty index, or no
// records at all — return a zero-length block without allocating, and the
// store holds that block, empty and of 0 bytes, in place of what the slot
// held before.
func TestEmptySelectionStoresNothing(t *testing.T) {
	store := NewStore()
	writer := NewBlockWriter()
	recs := []data.Record{{Key: 1, Val: 1}, {Key: 2, Val: 2}}
	for _, tc := range []struct {
		name  string
		block func() []byte
	}{
		{"Block, empty index", func() []byte { return writer.Block(recs, []uint32{}) }},
		{"Block, no records", func() []byte { return writer.Block(nil, nil) }},
		{"CombinedBlock, empty index", func() []byte { return writer.CombinedBlock(recs, []uint32{}, dag.Sum, IdentityBucket) }},
		{"CombinedBlock, no records", func() []byte { return writer.CombinedBlock(nil, nil, dag.Sum, IdentityBucket) }},
	} {
		id := BlockID{Job: tc.name, ReducePartition: 3}
		store.PutRaw(id, writer.Block(recs, nil))
		var b []byte
		if allocs := testing.AllocsPerRun(20, func() { b = tc.block() }); allocs != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, allocs)
		}
		if b == nil || len(b) != 0 {
			t.Errorf("%s: returned %v, want a zero-length block", tc.name, b)
		}
		store.PutRaw(id, b)
		if raw, ok := store.GetRaw(id); !ok || raw == nil || len(raw) != 0 {
			t.Errorf("%s: stored block is %v (held %v), want a held zero-length block", tc.name, raw, ok)
		}
	}
	if n, b := store.Stats(); n != 4 || b != 0 {
		t.Errorf("Stats = %d blocks, %d bytes; want 4 empty blocks", n, b)
	}
}

func TestCombineSums(t *testing.T) {
	recs := []data.Record{
		{Key: 1, Val: 1}, {Key: 1, Val: 2}, {Key: 2, Val: 5},
	}
	out := Combine(recs, dag.Sum, IdentityBucket)
	if len(out) != 2 {
		t.Fatalf("Combine produced %d records, want 2", len(out))
	}
	sums := map[uint64]int64{}
	for _, r := range out {
		sums[r.Key] = r.Val
	}
	if sums[1] != 3 || sums[2] != 5 {
		t.Fatalf("Combine sums wrong: %v", sums)
	}
}

func TestCombineRespectsWindows(t *testing.T) {
	w := dag.WindowSpec{Size: 10 * time.Millisecond}
	ms := int64(time.Millisecond)
	recs := []data.Record{
		{Key: 1, Val: 1, Time: 1 * ms},
		{Key: 1, Val: 1, Time: 9 * ms},
		{Key: 1, Val: 1, Time: 11 * ms}, // next window
	}
	out := Combine(recs, dag.Sum, WindowBucket(w))
	if len(out) != 2 {
		t.Fatalf("Combine merged across windows: %v", out)
	}
	byWindow := map[int64]int64{}
	for _, r := range out {
		byWindow[r.Time] = r.Val
	}
	if byWindow[0] != 2 || byWindow[10*ms] != 1 {
		t.Fatalf("window sums wrong: %v", byWindow)
	}
}

// TestCombinePreservesTotalQuick property-tests that combining never
// changes the total sum, for arbitrary inputs and either bucketing.
func TestCombinePreservesTotalQuick(t *testing.T) {
	w := dag.WindowSpec{Size: 3 * time.Millisecond}
	f := func(keys []uint8, vals []int32, times []int16) bool {
		n := min3(len(keys), len(vals), len(times))
		recs := make([]data.Record, n)
		var want int64
		for i := 0; i < n; i++ {
			recs[i] = data.Record{Key: uint64(keys[i]), Val: int64(vals[i]), Time: int64(times[i])}
			want += int64(vals[i])
		}
		for _, bucket := range []TimeBucket{IdentityBucket, WindowBucket(w)} {
			var got int64
			for _, r := range Combine(append([]data.Record(nil), recs...), dag.Sum, bucket) {
				got += r.Val
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// TestPutCombinedMatchesNaiveAggregation drives the engine's combine path —
// one BlockWriter reused for every block of several map tasks, each block
// folded through one partition of an index — against a plain map per
// reducer. A table that kept groups from the previous block, or a fold that
// read the wrong partition, shows up as a wrong or extra aggregate.
func TestPutCombinedMatchesNaiveAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	win := dag.WindowSpec{Size: 10 * time.Millisecond}
	bucket := WindowBucket(win)
	writer := NewBlockWriter()
	var index data.PartitionIndex
	for task, n := range []int{3000, 10, 0, 800} {
		const reducers = 3
		recs := make([]data.Record, n)
		want := make([]map[combineKey]int64, reducers)
		for r := range want {
			want[r] = make(map[combineKey]int64)
		}
		part := data.NewHashPartitioner(reducers)
		for i := range recs {
			recs[i] = data.Record{Key: uint64(rng.Intn(40)), Val: int64(rng.Intn(9)), Time: int64(rng.Intn(int(35 * time.Millisecond)))}
			want[part.Partition(recs[i].Key)][combineKey{recs[i].Key, bucket(recs[i].Time)}] += recs[i].Val
		}
		index.Build(recs, part)
		for r := 0; r < reducers; r++ {
			out, err := decodeStored(writer.CombinedBlock(recs, index.Part(r), dag.Sum, bucket))
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[combineKey]int64)
			for _, rec := range out {
				if _, dup := got[combineKey{rec.Key, rec.Time}]; dup {
					t.Fatalf("task %d reducer %d: group (%d, %d) emitted twice", task, r, rec.Key, rec.Time)
				}
				got[combineKey{rec.Key, rec.Time}] = rec.Val
			}
			if !reflect.DeepEqual(got, want[r]) {
				t.Fatalf("task %d reducer %d: combined block holds %v, want %v", task, r, got, want[r])
			}
		}
	}
}

// TestPutCombinedIsDeterministic: a combined block is a function of its
// input. Twenty writers, each fresh, combine the same records into the same
// bytes — the table drains in the order groups first appeared, not in the
// order a hash map happens to iterate.
func TestPutCombinedIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := make([]data.Record, 5000)
	for i := range recs {
		recs[i] = data.Record{Key: rng.Uint64() % 500, Val: 1, Time: int64(rng.Intn(int(40 * time.Millisecond)))}
	}
	bucket := WindowBucket(dag.WindowSpec{Size: 10 * time.Millisecond})
	var first []byte
	for w := 0; w < 20; w++ {
		got := NewBlockWriter().CombinedBlock(recs, nil, dag.Sum, bucket)
		if w == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("writer %d stored a different block for the same input (%d vs %d bytes)", w, len(got), len(first))
		}
	}
}

// TestAggTableMatchesMap folds random groups through one table, drained and
// reused many times, against a plain map: same groups, same values, each
// once, in first-seen order.
func TestAggTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var table AggTable
	var out []data.Record
	for round := 0; round < 30; round++ {
		n, keys := rng.Intn(3000), 1+rng.Intn(2000)
		recs := make([]data.Record, n)
		want := make(map[combineKey]int64)
		var order []combineKey
		for i := range recs {
			recs[i] = data.Record{Key: uint64(rng.Intn(keys)) << uint(rng.Intn(40)), Val: rng.Int63n(100), Time: int64(rng.Intn(4))}
			k := combineKey{recs[i].Key, recs[i].Time}
			if _, ok := want[k]; !ok {
				order = append(order, k)
			}
			want[k] = max(want[k], recs[i].Val)
		}
		table.Fold(recs, nil, dag.Max, func(ns int64) int64 { return ns })
		out = table.Drain(out[:0])
		if len(out) != len(order) {
			t.Fatalf("round %d: %d groups drained, want %d", round, len(out), len(order))
		}
		for i, r := range out {
			if k := (combineKey{r.Key, r.Time}); k != order[i] || r.Val != want[k] {
				t.Fatalf("round %d: group %d is (%d, %d) = %d, want (%d, %d) = %d",
					round, i, r.Key, r.Time, r.Val, order[i].key, order[i].bucket, want[order[i]])
			}
		}
	}
}

type combineKey struct {
	key    uint64
	bucket int64
}

func TestCombineEmpty(t *testing.T) {
	if out := Combine(nil, dag.Sum, IdentityBucket); len(out) != 0 {
		t.Fatalf("Combine(nil) = %v", out)
	}
}

// fetchHarness wires a Service and Fetcher over an in-memory network.
func fetchHarness(t *testing.T) (*Store, *Fetcher, *rpc.InMemNetwork) {
	t.Helper()
	net := rpc.NewInMemNetwork(rpc.InMemConfig{})
	t.Cleanup(net.Close)
	store := NewStore()
	svc := NewService(store, func(to rpc.NodeID, msg any) error { return net.Send("holder", to, msg) })
	fetcher := NewFetcher("asker", func(to rpc.NodeID, msg any) error { return net.Send("asker", to, msg) })
	if err := net.Register("holder", func(_ rpc.NodeID, msg any) {
		if req, ok := msg.(FetchRequest); ok {
			svc.HandleRequest(req)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register("asker", func(_ rpc.NodeID, msg any) {
		if resp, ok := msg.(FetchResponse); ok {
			fetcher.HandleResponse(resp)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return store, fetcher, net
}

func TestFetchRoundTrip(t *testing.T) {
	store, fetcher, _ := fetchHarness(t)
	id := BlockID{Batch: 3, Stage: 0, MapPartition: 1, ReducePartition: 0}
	store.Put(id, []data.Record{{Key: 7, Val: 70}})
	blocks, err := fetcher.Fetch("holder", []BlockID{id}, time.Second)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(blocks) != 1 || blocks[0].ID != id {
		t.Fatalf("Fetch = %v", blocks)
	}
	recs, _, err := data.DecodeBatch(blocks[0].Data)
	if err != nil || len(recs) != 1 || recs[0].Val != 70 {
		t.Fatalf("decoded %v, err %v", recs, err)
	}
}

// TestFetchRejectsMismatchedBlocks: a response is checked against its
// request. A holder that answers with too few or too many blocks, another
// block, or the right blocks out of order gets a fetch error — counted as
// one — instead of handing the reduce task someone else's data.
func TestFetchRejectsMismatchedBlocks(t *testing.T) {
	a, b, c := BlockID{Batch: 1}, BlockID{Batch: 2}, BlockID{Batch: 3}
	req := []BlockID{a, b}
	blk := func(id BlockID) Block { return Block{ID: id, Data: []byte{1}} }
	for name, sent := range map[string][]Block{
		"too few":      {blk(a)},
		"too many":     {blk(a), blk(b), blk(c)},
		"another":      {blk(a), blk(c)},
		"out of order": {blk(b), blk(a)},
	} {
		net := rpc.NewInMemNetwork(rpc.InMemConfig{})
		fetcher := NewFetcher("asker", func(to rpc.NodeID, msg any) error { return net.Send("asker", to, msg) })
		if err := net.Register("holder", func(_ rpc.NodeID, msg any) {
			if r, ok := msg.(FetchRequest); ok {
				_ = net.Send("holder", r.From, FetchResponse{ID: r.ID, Blocks: sent})
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.Register("asker", func(_ rpc.NodeID, msg any) {
			if resp, ok := msg.(FetchResponse); ok {
				fetcher.HandleResponse(resp)
			}
		}); err != nil {
			t.Fatal(err)
		}
		got, err := fetcher.Fetch("holder", req, time.Second)
		if err == nil || !strings.Contains(err.Error(), "holder") {
			t.Errorf("%s: Fetch = %d blocks, err %v; want an error naming the holder", name, len(got), err)
		}
		if n := fetcher.cErrors.Value(); n != 1 {
			t.Errorf("%s: %d fetch errors counted, want 1", name, n)
		}
		net.Close()
	}
}

// TestFetchEmptyBlock: an empty block is held, not missing. The service
// answers for it with a found block of no bytes, which is still that after
// the response crosses the wire codec.
func TestFetchEmptyBlock(t *testing.T) {
	store, fetcher, _ := fetchHarness(t)
	full := BlockID{Batch: 3, MapPartition: 1, ReducePartition: 0}
	empty := BlockID{Batch: 3, MapPartition: 1, ReducePartition: 1}
	writer := NewBlockWriter()
	store.PutRaw(full, writer.Block([]data.Record{{Key: 7, Val: 70}}, nil))
	store.PutRaw(empty, writer.Block(nil, nil))
	blocks, err := fetcher.Fetch("holder", []BlockID{full, empty}, time.Second)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(blocks) != 2 || blocks[1].ID != empty || len(blocks[1].Data) != 0 {
		t.Fatalf("Fetch = %+v, want the full block and then the empty one, of no bytes", blocks)
	}

	var resp FetchResponse
	NewService(store, func(_ rpc.NodeID, msg any) error {
		resp = msg.(FetchResponse)
		return nil
	}).HandleRequest(FetchRequest{ID: 1, From: "asker", Blocks: []BlockID{empty}})
	enc, err := rpc.DefaultCodec.EncodeMessage(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rpc.DefaultCodec.DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(FetchResponse)
	if len(got.Missing) != 0 || len(got.Blocks) != 1 || got.Blocks[0].ID != empty || len(got.Blocks[0].Data) != 0 {
		t.Fatalf("decoded response %+v, want one found block of no bytes", got)
	}
}

func TestFetchMissingBlock(t *testing.T) {
	_, fetcher, _ := fetchHarness(t)
	_, err := fetcher.Fetch("holder", []BlockID{{Batch: 99}}, time.Second)
	if err == nil {
		t.Fatal("Fetch of missing block succeeded")
	}
}

func TestFetchTimeoutOnDeadHolder(t *testing.T) {
	_, fetcher, net := fetchHarness(t)
	net.Fail("holder")
	start := time.Now()
	_, err := fetcher.Fetch("holder", []BlockID{{Batch: 1}}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("Fetch from failed holder succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Fetch did not respect timeout")
	}
}

func TestFetchConcurrent(t *testing.T) {
	store, fetcher, _ := fetchHarness(t)
	const n = 20
	for i := 0; i < n; i++ {
		store.Put(BlockID{Batch: int64(i)}, []data.Record{{Key: uint64(i), Val: int64(i)}})
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			blocks, err := fetcher.Fetch("holder", []BlockID{{Batch: int64(i)}}, time.Second)
			if err == nil && (len(blocks) != 1 || blocks[0].ID.Batch != int64(i)) {
				err = errTest
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent fetch: %v", err)
		}
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "wrong blocks" }

// multiHolderHarness wires one fetcher against several holder services.
func multiHolderHarness(t *testing.T, holders ...rpc.NodeID) (map[rpc.NodeID]*Store, *Fetcher) {
	t.Helper()
	net := rpc.NewInMemNetwork(rpc.InMemConfig{})
	t.Cleanup(net.Close)
	stores := make(map[rpc.NodeID]*Store, len(holders))
	for _, h := range holders {
		h := h
		store := NewStore()
		stores[h] = store
		svc := NewService(store, func(to rpc.NodeID, msg any) error { return net.Send(h, to, msg) })
		if err := net.Register(h, func(_ rpc.NodeID, msg any) {
			if req, ok := msg.(FetchRequest); ok {
				svc.HandleRequest(req)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	fetcher := NewFetcher("asker", func(to rpc.NodeID, msg any) error { return net.Send("asker", to, msg) })
	if err := net.Register("asker", func(_ rpc.NodeID, msg any) {
		if resp, ok := msg.(FetchResponse); ok {
			fetcher.HandleResponse(resp)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return stores, fetcher
}

func TestFetchAllMergesHoldersInOrder(t *testing.T) {
	stores, fetcher := multiHolderHarness(t, "h1", "h2", "h3")
	req := make(map[rpc.NodeID][]BlockID)
	for i, h := range []rpc.NodeID{"h1", "h2", "h3"} {
		id := BlockID{Batch: int64(i), MapPartition: i}
		stores[h].Put(id, []data.Record{{Key: uint64(i), Val: int64(10 * i)}})
		req[h] = []BlockID{id}
	}
	blocks, err := fetcher.FetchAll(req, time.Second)
	if err != nil {
		t.Fatalf("FetchAll: %v", err)
	}
	if len(blocks) != 3 {
		t.Fatalf("FetchAll returned %d blocks, want 3", len(blocks))
	}
	// Holder order is sorted, so blocks arrive h1, h2, h3.
	for i, b := range blocks {
		if b.ID.Batch != int64(i) {
			t.Fatalf("block %d is %+v, want Batch=%d (sorted holder order)", i, b.ID, i)
		}
	}
}

func TestFetchAllPropagatesError(t *testing.T) {
	stores, fetcher := multiHolderHarness(t, "h1", "h2")
	ok := BlockID{Batch: 1}
	stores["h1"].Put(ok, []data.Record{{Key: 1, Val: 1}})
	req := map[rpc.NodeID][]BlockID{
		"h1": {ok},
		"h2": {{Batch: 99}}, // missing on h2
	}
	if _, err := fetcher.FetchAll(req, time.Second); err == nil {
		t.Fatal("FetchAll with a missing block succeeded")
	}
}

func TestFetchAllEmpty(t *testing.T) {
	_, fetcher := multiHolderHarness(t, "h1")
	blocks, err := fetcher.FetchAll(nil, time.Second)
	if err != nil || blocks != nil {
		t.Fatalf("FetchAll(nil) = %v, %v", blocks, err)
	}
}

// storedForm reports how a stored block was written: inside the snappy
// envelope, or plain, and then whether its keys are dictionary-coded.
func storedForm(t *testing.T, raw []byte) (compressed, dict bool) {
	t.Helper()
	if len(raw) < 7 {
		t.Fatalf("stored block of %d bytes", len(raw))
	}
	if raw[4] == 2 {
		return true, false
	}
	_, n := binary.Uvarint(raw[5:])
	return false, raw[5+n]&4 != 0
}

// TestStoreRuleFollowsKeyForm pins the store rule: a block whose keys took
// the dictionary form is stored plain whatever its size, and a raw-key block
// is compressed from SmallBlock up — when that shrinks it — and stored plain
// below.
func TestStoreRuleFollowsKeyForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hot := make([]uint64, 300)
	for i := range hot {
		hot[i] = rng.Uint64()
	}
	writer := NewBlockWriter()
	for _, tc := range []struct {
		name             string
		n                int
		key              func(i int) uint64
		compressed, dict bool
	}{
		{"repeated hashed keys", 8000, func(i int) uint64 { return hot[rng.Intn(len(hot))] }, false, true},
		{"repeated keys, small block", 40, func(i int) uint64 { return hot[i%4] }, false, true},
		{"distinct small keys", 2000, func(i int) uint64 { return uint64(i * 3) }, true, false},
		{"distinct keys, small block", 100, func(i int) uint64 { return uint64(i * 3) }, false, false},
	} {
		recs := make([]data.Record, tc.n)
		for i := range recs {
			recs[i] = data.Record{Key: tc.key(i), Val: 1, Time: 1_700_000_000_000_000_000 + int64(i)*16_000}
		}
		raw := writer.Block(recs, nil)
		size := len(raw)
		compressed, dict := storedForm(t, raw)
		if compressed != tc.compressed || dict != tc.dict {
			t.Errorf("%s: %d-byte block stored compressed=%v dictionary=%v, want %v and %v",
				tc.name, size, compressed, dict, tc.compressed, tc.dict)
		}
		if big := tc.n >= 2000; big != (size >= SmallBlock) {
			t.Errorf("%s: %d-byte block is on the wrong side of SmallBlock for this test", tc.name, size)
		}
		if got, _, err := data.DecodeBatch(raw); err != nil || !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s: stored block does not decode to its records (%v)", tc.name, err)
		}
	}
}

// TestPutCombinedOfOneWindowKeepsRawKeys: the combiner emits one record per
// (key, window) group, so a combined block of one window — every combined
// block the engine writes when windows are aligned to batches — holds each
// key once and keeps the raw key column, compressed from SmallBlock up as
// before. (A block whose records span several windows repeats its keys
// across them, and may take the dictionary form like any other.)
func TestPutCombinedOfOneWindowKeepsRawKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	win := dag.WindowSpec{Size: 100 * time.Millisecond}
	writer := NewBlockWriter()
	var index data.PartitionIndex
	for trial := 0; trial < 100; trial++ {
		recs := make([]data.Record, 1+rng.Intn(20_000))
		keys := 1 + rng.Intn(5000)
		w0 := int64(rng.Intn(1000)) * int64(win.Size)
		for i := range recs {
			recs[i] = data.Record{Key: rng.Uint64() % uint64(keys) * 0x9E3779B97F4A7C15, Val: 1, Time: w0 + rng.Int63n(int64(win.Size))}
		}
		bucket := WindowBucket(win)
		if trial%2 == 1 {
			bucket = IdentityBucket
		}
		reducers := 1 + rng.Intn(4)
		index.Build(recs, data.NewHashPartitioner(reducers))
		for r := 0; r < reducers; r++ {
			raw := writer.CombinedBlock(recs, index.Part(r), dag.Sum, bucket)
			if compressed, dict := storedForm(t, raw); dict || (len(raw) >= SmallBlock && !compressed) {
				t.Fatalf("trial %d reducer %d: combined block of %d bytes stored compressed=%v dictionary=%v",
					trial, r, len(raw), compressed, dict)
			}
		}
	}
}
