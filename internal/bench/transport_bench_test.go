package bench

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drizzle/internal/data"
	"drizzle/internal/rpc"
	"drizzle/internal/shuffle"
	"drizzle/internal/wire"
)

// wireMsg is the small control-message stand-in for transport benchmarks.
// Its registration (tag 32, the applications/tests range) exercises the
// public RegisterBinaryMessage API the same way internal/core's messages
// do; the unbuffered baseline sends it with gob.
type wireMsg struct {
	Seq int
	Pad []byte
}

// baselineEnvelope mirrors the transport's wire envelope (From/To plus an
// interface-typed payload) so the unbuffered baseline pays the same gob
// encoding cost and the comparison isolates the write path.
type baselineEnvelope struct {
	From    rpc.NodeID
	To      rpc.NodeID
	Payload any
}

func init() {
	gob.Register(wireMsg{})
	// Pad rides through AppendCompressed with the same 4 KiB threshold the
	// real bulk fields (checkpoint state, shuffle blocks) use, so the
	// payload-heavy transport shapes exercise the production byte path.
	rpc.RegisterBinaryMessage(32, wireMsg{},
		func(dst []byte, msg any) []byte {
			m := msg.(wireMsg)
			dst = wire.AppendVarint(dst, int64(m.Seq))
			return wire.AppendCompressed(dst, m.Pad, 4<<10)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := wireMsg{Seq: r.Int(), Pad: r.Compressed()}
			return m, r.Done()
		})
}

// BenchmarkTCPTransport measures small-message throughput of the TCP
// transport against an unbuffered baseline that reproduces the prototype
// transport's write path: one gob.Encoder directly on the socket behind a
// mutex, one syscall per frame. The buffered variants are the real
// rpc.TCPNetwork (bufio.Writer + group-flush). Both sides
// count at the receiver, so the number includes decode + delivery.
//
// Every variant sends one warm-up message and waits for its delivery before
// the timer starts: the connection dial, and for the gob baseline the
// per-connection type dictionary, are setup cost — attributing them to the first timed message
// used to skew small-b.N runs (see docs/EXPERIMENTS.md).
//
// senders raises RunParallel's goroutine count above GOMAXPROCS: in the
// engine a route is shared by several goroutines (heartbeat loop, task
// goroutines, shuffle service), and group flush only has something to
// coalesce when senders actually contend for the connection.
func BenchmarkTCPTransport(b *testing.B) {
	const (
		payload = 64
		senders = 8
	)

	b.Run("unbuffered-baseline", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		var delivered atomic.Int64
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					dec := gob.NewDecoder(c)
					for {
						var m baselineEnvelope
						if dec.Decode(&m) != nil {
							return
						}
						delivered.Add(1)
					}
				}()
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		enc := gob.NewEncoder(conn) // unbuffered: every Encode hits the socket
		var mu sync.Mutex
		pad := make([]byte, payload)
		// Warm the connection: the first envelope carries gob's type
		// dictionary and must not be charged to the measurement.
		if err := enc.Encode(baselineEnvelope{From: "client", To: "server", Payload: wireMsg{Pad: pad}}); err != nil {
			b.Fatal(err)
		}
		waitCount(b, &delivered, 1)
		b.SetParallelism(senders)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				err := enc.Encode(baselineEnvelope{From: "client", To: "server", Payload: wireMsg{Pad: pad}})
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
		waitCount(b, &delivered, int64(b.N)+1)
	})

	// Two message shapes: the 64 B pad is the control-message regime, where
	// the transport's fixed costs (locks, group flush, delivery queue)
	// share the bill with the codec; launch-64-tasks is the payload-heavy
	// regime — the group-scheduling bundle the driver actually sends, 64
	// descriptors with deps and location maps, where encoding dominates.
	shapes := []struct {
		name string
		msg  any
	}{
		{"pad64B", wireMsg{Pad: make([]byte, payload)}},
		{"launch-64-tasks", benchLaunchTasks(64)},
	}
	for _, shape := range shapes {
		b.Run("buffered/"+shape.name, func(b *testing.B) {
			cfg := rpc.DefaultTCPConfig()
			// The bench floods one route far faster than the delivery goroutine
			// is scheduled under full-core send pressure; a deep queue keeps the
			// shed policy out of the measurement so every message is counted.
			cfg.InboundQueue = 1 << 21
			n := rpc.NewTCPNetworkWithConfig(cfg)
			defer n.Close()
			var delivered atomic.Int64
			if _, err := n.Listen("server", "127.0.0.1:0", func(rpc.NodeID, any) {
				delivered.Add(1)
			}); err != nil {
				b.Fatal(err)
			}
			// Warm the route: the dial happens here, not on the first timed
			// send.
			if err := n.Send("client", "server", shape.msg); err != nil {
				b.Fatal(err)
			}
			waitCount(b, &delivered, 1)
			b.SetParallelism(senders)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := n.Send("client", "server", shape.msg); err != nil {
						b.Error(err)
						return
					}
				}
			})
			waitCount(b, &delivered, int64(b.N)+1)
			b.ReportMetric(float64(n.Stats().SocketWrites)/float64(b.N), "writes/op")
		})
	}
}

func waitCount(b *testing.B, c *atomic.Int64, want int64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d/%d", c.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// fetchBench wires two block holders and a fetcher over one TCP network,
// returning the fetcher, the per-holder request map, and the total stored
// bytes per full fetch. Blocks are stored as Store.Put writes them.
func fetchBench(b *testing.B) (*shuffle.Fetcher, map[rpc.NodeID][]shuffle.BlockID, int64, func()) {
	b.Helper()
	const (
		holders      = 2
		blocksPer    = 4
		recsPerBlock = 2000
	)
	n := rpc.NewTCPNetwork()

	req := make(map[rpc.NodeID][]shuffle.BlockID, holders)
	var totalBytes int64
	for h := 0; h < holders; h++ {
		holder := rpc.NodeID(fmt.Sprintf("holder%d", h))
		store := shuffle.NewStore()
		svc := shuffle.NewService(store, func(to rpc.NodeID, msg any) error {
			return n.Send(holder, to, msg)
		})
		if _, err := n.Listen(holder, "127.0.0.1:0", func(_ rpc.NodeID, msg any) {
			if r, ok := msg.(shuffle.FetchRequest); ok {
				svc.HandleRequest(r)
			}
		}); err != nil {
			b.Fatal(err)
		}
		for blk := 0; blk < blocksPer; blk++ {
			id := shuffle.BlockID{Batch: int64(blk), MapPartition: h}
			recs := make([]data.Record, recsPerBlock)
			for i := range recs {
				recs[i] = data.Record{Key: uint64(i), Val: int64(i), Time: int64(i)}
			}
			totalBytes += int64(store.Put(id, recs))
			req[holder] = append(req[holder], id)
		}
	}
	fetcher := shuffle.NewFetcher("asker", func(to rpc.NodeID, msg any) error {
		return n.Send("asker", to, msg)
	})
	if _, err := n.Listen("asker", "127.0.0.1:0", func(_ rpc.NodeID, msg any) {
		if resp, ok := msg.(shuffle.FetchResponse); ok {
			fetcher.HandleResponse(resp)
		}
	}); err != nil {
		b.Fatal(err)
	}
	return fetcher, req, totalBytes, func() { n.Close() }
}

// BenchmarkShuffleFetch measures a reduce task's input gathering over real
// TCP from two holders: sequential per-holder Fetch (the old
// gatherInputs loop) versus pipelined FetchAll. Each iteration moves 8
// blocks of 2000 records each — a payload-heavy reduce input.
func BenchmarkShuffleFetch(b *testing.B) {
	fetcher, req, totalBytes, cleanup := fetchBench(b)
	defer cleanup()
	// Warm every route (dial) before timing.
	if _, err := fetcher.FetchAll(req, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(totalBytes)
		for i := 0; i < b.N; i++ {
			for holder, blocks := range req {
				if _, err := fetcher.Fetch(holder, blocks, 10*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.SetBytes(totalBytes)
		for i := 0; i < b.N; i++ {
			if _, err := fetcher.FetchAll(req, 10*time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
}
