package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drizzle/internal/wire"
)

type testMsg struct {
	Seq int
}

type bigMsg struct {
	N int
}

func (b bigMsg) WireSize() int { return b.N }

func init() {
	RegisterBinaryMessage(32, testMsg{},
		func(dst []byte, msg any) []byte { return wire.AppendVarint(dst, int64(msg.(testMsg).Seq)) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := testMsg{Seq: r.Int()}
			return m, r.Done()
		})
}

func TestInMemDelivery(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	defer net.Close()
	got := make(chan testMsg, 1)
	if err := net.Register("b", func(from NodeID, msg any) {
		if from != "a" {
			t.Errorf("from = %s, want a", from)
		}
		got <- msg.(testMsg)
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register("a", func(NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", testMsg{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Seq != 7 {
			t.Fatalf("Seq = %d, want 7", m.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestInMemOrdering(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond})
	defer net.Close()
	const n = 500
	var mu sync.Mutex
	var seqs []int
	done := make(chan struct{})
	net.Register("recv", func(_ NodeID, msg any) {
		mu.Lock()
		seqs = append(seqs, msg.(testMsg).Seq)
		if len(seqs) == n {
			close(done)
		}
		mu.Unlock()
	})
	net.Register("send", func(NodeID, any) {})
	for i := 0; i < n; i++ {
		if err := net.Send("send", "recv", testMsg{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for messages")
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("out-of-order delivery at %d: got %d", i, s)
		}
	}
}

func TestInMemUnknownNode(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	defer net.Close()
	net.Register("a", func(NodeID, any) {})
	if err := net.Send("a", "ghost", testMsg{}); err == nil {
		t.Fatal("send to unregistered node succeeded")
	}
}

func TestInMemDuplicateRegister(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	defer net.Close()
	net.Register("a", func(NodeID, any) {})
	if err := net.Register("a", func(NodeID, any) {}); err == nil {
		t.Fatal("duplicate register succeeded")
	}
}

func TestInMemFailureInjection(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	defer net.Close()
	var received atomic.Int64
	net.Register("b", func(NodeID, any) { received.Add(1) })
	net.Register("a", func(NodeID, any) {})

	net.Fail("b")
	if err := net.Send("a", "b", testMsg{}); err == nil {
		t.Fatal("send to failed node succeeded")
	}
	if err := net.Send("b", "a", testMsg{}); err == nil {
		t.Fatal("send from failed node succeeded")
	}
	net.Recover("b")
	if err := net.Send("a", "b", testMsg{}); err != nil {
		t.Fatalf("send after recover: %v", err)
	}
	deadline := time.After(time.Second)
	for received.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("message after recover not delivered")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestInMemLatency(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{Latency: 20 * time.Millisecond})
	defer net.Close()
	got := make(chan time.Time, 1)
	net.Register("b", func(NodeID, any) { got <- time.Now() })
	net.Register("a", func(NodeID, any) {})
	start := time.Now()
	net.Send("a", "b", testMsg{})
	at := <-got
	if elapsed := at.Sub(start); elapsed < 15*time.Millisecond {
		t.Fatalf("latency not applied: delivered after %v", elapsed)
	}
}

func TestInMemBandwidth(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100ms.
	net := NewInMemNetwork(InMemConfig{BytesPerSec: 10 << 20})
	defer net.Close()
	got := make(chan time.Time, 1)
	net.Register("b", func(NodeID, any) { got <- time.Now() })
	net.Register("a", func(NodeID, any) {})
	start := time.Now()
	net.Send("a", "b", bigMsg{N: 1 << 20})
	at := <-got
	if elapsed := at.Sub(start); elapsed < 80*time.Millisecond {
		t.Fatalf("bandwidth not charged: delivered after %v", elapsed)
	}
}

func TestInMemUnregisterStopsDelivery(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	defer net.Close()
	net.Register("b", func(NodeID, any) {})
	net.Register("a", func(NodeID, any) {})
	net.Unregister("b")
	if err := net.Send("a", "b", testMsg{}); err == nil {
		t.Fatal("send to unregistered node succeeded")
	}
}

func TestInMemCloseIdempotent(t *testing.T) {
	net := NewInMemNetwork(InMemConfig{})
	net.Register("a", func(NodeID, any) {})
	net.Close()
	net.Close()
	if err := net.Send("a", "a", testMsg{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	got := make(chan testMsg, 10)
	if _, err := net.Listen("server", "127.0.0.1:0", func(from NodeID, msg any) {
		got <- msg.(testMsg)
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("client", "server", testMsg{Seq: 42}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Seq != 42 {
			t.Fatalf("Seq = %d, want 42", m.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP message not delivered")
	}
}

func TestTCPOrdering(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	const n = 200
	var mu sync.Mutex
	var seqs []int
	done := make(chan struct{})
	net.Listen("server", "127.0.0.1:0", func(_ NodeID, msg any) {
		mu.Lock()
		seqs = append(seqs, msg.(testMsg).Seq)
		if len(seqs) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := net.Send("client", "server", testMsg{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("TCP out-of-order at %d: got %d", i, s)
		}
	}
}

func TestTCPBidirectional(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	pong := make(chan struct{}, 1)
	net.Listen("b", "127.0.0.1:0", func(from NodeID, msg any) {
		net.Send("b", NodeID(from), testMsg{Seq: msg.(testMsg).Seq + 1})
	})
	net.Listen("a", "127.0.0.1:0", func(_ NodeID, msg any) {
		if msg.(testMsg).Seq == 2 {
			pong <- struct{}{}
		}
	})
	net.Send("a", "b", testMsg{Seq: 1})
	select {
	case <-pong:
	case <-time.After(2 * time.Second):
		t.Fatal("no pong")
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	if err := net.Send("a", "nowhere", testMsg{}); err == nil {
		t.Fatal("send to unannounced node succeeded")
	}
}

func TestTCPAnnounceRouting(t *testing.T) {
	serverNet := NewTCPNetwork()
	defer serverNet.Close()
	got := make(chan struct{}, 1)
	addr, err := serverNet.Listen("server", "127.0.0.1:0", func(NodeID, any) { got <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	// A separate "process": a second TCPNetwork that only knows the address.
	clientNet := NewTCPNetwork()
	defer clientNet.Close()
	clientNet.Announce("server", addr)
	if err := clientNet.Send("client", "server", testMsg{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("cross-network message not delivered")
	}
}
