package shuffle

import (
	"drizzle/internal/rpc"
	"drizzle/internal/wire"
)

// Hand-rolled binary codecs for the shuffle data plane, registered with the
// rpc codec. This is the hot path the codec exists for: a
// FetchResponse's block bytes are appended to the frame verbatim — the
// stored (already-encoded, already-compressed) block is served without
// touching a single record. Compression happens once, in Store.Put (the
// data package's format-2 envelope), so a block fetched by several reducers
// is never re-compressed per send. Tags 16..31 belong to this package and
// are wire-stable.

const (
	tagFetchRequest  = 16
	tagFetchResponse = 17
)

// SmallBlock is the line between small and large blocks. A raw-key
// encoding this size or larger is stored compressed by Store.Put: small
// blocks are not worth the CPU, large ones may be. (A block whose keys
// repeat takes dictionary keys instead and is stored plain at any size:
// the dictionary has already found what snappy would.) A block stored
// below the line is pushed to its consumer inside the producer's
// DataReady; one at or above it is pulled with a FetchRequest.
const SmallBlock = 4 << 10

func appendBlockID(dst []byte, id BlockID) []byte {
	dst = wire.AppendString(dst, id.Job)
	dst = wire.AppendVarint(dst, id.Batch)
	dst = wire.AppendVarint(dst, int64(id.Stage))
	dst = wire.AppendVarint(dst, int64(id.MapPartition))
	return wire.AppendVarint(dst, int64(id.ReducePartition))
}

func readBlockID(r *wire.Reader) BlockID {
	return BlockID{
		Job:             r.String(),
		Batch:           r.Varint(),
		Stage:           r.Int(),
		MapPartition:    r.Int(),
		ReducePartition: r.Int(),
	}
}

func init() {
	rpc.RegisterBinaryMessage(tagFetchRequest, FetchRequest{},
		func(dst []byte, msg any) []byte {
			m := msg.(FetchRequest)
			dst = wire.AppendUvarint(dst, m.ID)
			dst = wire.AppendString(dst, string(m.From))
			dst = wire.AppendUvarint(dst, uint64(len(m.Blocks)))
			for _, id := range m.Blocks {
				dst = appendBlockID(dst, id)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m FetchRequest
			m.ID = r.Uvarint()
			m.From = rpc.NodeID(r.String())
			if n := r.Count(5); n > 0 {
				m.Blocks = make([]BlockID, n)
				for i := range m.Blocks {
					m.Blocks[i] = readBlockID(r)
				}
			}
			return m, r.Done()
		})

	rpc.RegisterBinaryMessage(tagFetchResponse, FetchResponse{},
		func(dst []byte, msg any) []byte {
			m := msg.(FetchResponse)
			dst = wire.AppendUvarint(dst, m.ID)
			dst = wire.AppendUvarint(dst, uint64(len(m.Blocks)))
			for _, blk := range m.Blocks {
				dst = appendBlockID(dst, blk.ID)
				dst = wire.AppendBytes(dst, blk.Data)
			}
			dst = wire.AppendUvarint(dst, uint64(len(m.Missing)))
			for _, id := range m.Missing {
				dst = appendBlockID(dst, id)
			}
			return dst
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			var m FetchResponse
			m.ID = r.Uvarint()
			if n := r.Count(7); n > 0 {
				m.Blocks = make([]Block, n)
				for i := range m.Blocks {
					m.Blocks[i] = Block{ID: readBlockID(r), Data: r.Bytes()}
				}
			}
			if n := r.Count(5); n > 0 {
				m.Missing = make([]BlockID, n)
				for i := range m.Missing {
					m.Missing[i] = readBlockID(r)
				}
			}
			return m, r.Done()
		})
}
