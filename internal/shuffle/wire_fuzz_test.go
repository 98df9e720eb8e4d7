package shuffle

import (
	"reflect"
	"testing"

	"drizzle/internal/data"
	"drizzle/internal/rpc"
)

// Fuzz targets for the shuffle data-plane decoders — the layer that consumes
// the most untrusted bytes (every fetched block crosses it). Contract:
// error, never panic, allocation bounded by the input; successful decodes
// are fixed points of the codec.

func fuzzShuffleDecode(f *testing.F, tag byte, seeds []any) {
	for _, msg := range seeds {
		b, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[1:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := rpc.DefaultCodec.DecodeMessage(append([]byte{tag}, b...))
		if err != nil {
			return
		}
		enc, err := rpc.DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := rpc.DefaultCodec.DecodeMessage(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("not a fixed point:\n first: %+v\nsecond: %+v", msg, again)
		}
	})
}

func seedBlockBytes() []byte {
	recs := make([]data.Record, 400)
	for i := range recs {
		recs[i] = data.Record{Key: uint64(i * 3), Val: 1, Time: int64(1000 + i)}
	}
	return data.EncodeBatchColumnar(nil, recs)
}

func FuzzDecodeFetchRequest(f *testing.F) {
	fuzzShuffleDecode(f, tagFetchRequest, []any{
		FetchRequest{},
		FetchRequest{ID: 9, From: "w3", Blocks: []BlockID{
			{Job: "j", Batch: 4, Stage: 1, MapPartition: 0, ReducePartition: 2},
			{Job: "j", Batch: 4, Stage: 1, MapPartition: 1, ReducePartition: 2},
		}},
	})
}

func FuzzDecodeFetchResponse(f *testing.F) {
	big := make([]byte, 12<<10)
	for i := range big {
		big[i] = byte(i >> 6) // compressible: the seed exercises the snappy path
	}
	fuzzShuffleDecode(f, tagFetchResponse, []any{
		FetchResponse{},
		FetchResponse{ID: 9, Blocks: []Block{
			{ID: BlockID{Job: "j", Batch: 4, Stage: 1}, Data: seedBlockBytes()},
			{ID: BlockID{Job: "j", Batch: 4, Stage: 1, MapPartition: 1}, Data: big},
		}},
		FetchResponse{ID: 10, Missing: []BlockID{{Job: "gone", Batch: 1}}},
	})
}
