package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/obs"
	"drizzle/internal/wire"
)

// padMsg is a payload big enough to wedge socket buffers quickly.
type padMsg struct {
	Seq int
	Pad []byte
}

func init() {
	RegisterBinaryMessage(33, padMsg{},
		func(dst []byte, msg any) []byte {
			m := msg.(padMsg)
			dst = wire.AppendVarint(dst, int64(m.Seq))
			return wire.AppendBytes(dst, m.Pad)
		},
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := padMsg{Seq: r.Int(), Pad: r.Bytes()}
			return m, r.Done()
		})
}

// TestTCPRejectsPeerWithoutMagic dials a node and speaks gob, the wire
// format before the binary codec: the stream does not open with the magic,
// so the node must drop the connection and deliver nothing.
func TestTCPRejectsPeerWithoutMagic(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	n.log = obs.Discard()
	var delivered atomic.Int32
	addr, err := n.Listen("server", "127.0.0.1:0", func(NodeID, any) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gob.Register(testMsg{})
	enc := gob.NewEncoder(c)
	for i := 0; i < 3; i++ {
		// A write can fail once the node has read the first bytes and
		// dropped the connection; the read below checks that it did.
		if err := enc.Encode(envelope{From: "client", To: "server", Payload: testMsg{Seq: i}}); err != nil {
			break
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a stream without the magic: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := delivered.Load(); got != 0 {
		t.Fatalf("handler received %d messages from a peer without the magic", got)
	}
}

// freeAddr reserves an ephemeral port and returns it unbound — the usual
// listen-then-close trick, fine for tests on loopback.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPStalledPeerDoesNotBlockOthers is the regression test for the wedge
// the old transport had: a peer that accepts but never reads used to hold
// the connection lock across an unbounded write, freezing every later send
// to that node. With per-write deadlines and per-route connections, the
// stalled route errors out within the deadline and sends on other routes
// (heartbeats) keep flowing the whole time.
func TestTCPStalledPeerDoesNotBlockOthers(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.WriteTimeout = 300 * time.Millisecond
	n := NewTCPNetworkWithConfig(cfg)
	defer n.Close()
	n.log = obs.Discard()

	// The stalled peer: accepts connections, reads nothing, ever.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	defer func() {
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()
	n.Announce("stalled", stall.Addr().String())

	var delivered atomic.Int64
	if _, err := n.Listen("healthy", "127.0.0.1:0", func(NodeID, any) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}

	// Flood the stalled peer with 1 MB payloads until the socket buffers
	// fill and the write deadline fires.
	stallErr := make(chan error, 1)
	go func() {
		pad := make([]byte, 1<<20)
		for i := 0; ; i++ {
			if err := n.Send("me", "stalled", padMsg{Seq: i, Pad: pad}); err != nil {
				stallErr <- err
				return
			}
		}
	}()

	// Meanwhile heartbeats to the healthy node must keep flowing, each
	// well under the write deadline.
	const beats = 40
	var worst time.Duration
	for i := 0; i < beats; i++ {
		start := time.Now()
		if err := n.Send("me", "healthy", testMsg{Seq: i}); err != nil {
			t.Fatalf("heartbeat %d failed while peer stalled: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		time.Sleep(5 * time.Millisecond)
	}
	if worst >= cfg.WriteTimeout {
		t.Fatalf("heartbeat send took %v, exceeding the %v write deadline of an unrelated route", worst, cfg.WriteTimeout)
	}

	select {
	case err := <-stallErr:
		t.Logf("stalled route surfaced after: %v (worst heartbeat %v)", err, worst)
	case <-time.After(10 * cfg.WriteTimeout):
		t.Fatal("send to stalled peer never surfaced an error")
	}

	deadline := time.After(2 * time.Second)
	for delivered.Load() < beats {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d heartbeats delivered", delivered.Load(), beats)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestTCPDialBackoffAndReconnect checks that a dead peer does not attract a
// dial storm (sends during the backoff window fail fast without dialing)
// and that the route heals once the peer comes back.
func TestTCPDialBackoffAndReconnect(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.RedialBackoff = 100 * time.Millisecond
	cfg.RedialBackoffMax = 100 * time.Millisecond
	n := NewTCPNetworkWithConfig(cfg)
	defer n.Close()

	addr := freeAddr(t)
	n.Announce("peer", addr)
	if err := n.Send("me", "peer", testMsg{}); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	dials := n.Stats().Dials
	if err := n.Send("me", "peer", testMsg{}); !errors.Is(err, ErrDialBackoff) {
		t.Fatalf("send during backoff = %v, want ErrDialBackoff", err)
	}
	if got := n.Stats().Dials; got != dials {
		t.Fatalf("backoff did not suppress dialing: %d dials, want %d", got, dials)
	}
	if n.Stats().DialsSuppressed == 0 {
		t.Fatal("DialsSuppressed not counted")
	}

	// Resurrect the peer on the same address; after the backoff window the
	// next send dials fresh and delivers.
	peer := NewTCPNetwork()
	defer peer.Close()
	if _, err := peer.Listen("peer", addr, func(NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := n.Send("me", "peer", testMsg{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("route never recovered after peer restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPConcurrentSendsDuringFailingRedial hammers one route to a dead
// peer from several goroutines with a backoff short enough that redials keep
// starting and failing while other senders are being turned away. A sender
// in the back-off branch used to format its error from the route's backoff
// state after releasing dialMu, racing the failing dial that rewrites that
// state; under -race this test fails on that read.
func TestTCPConcurrentSendsDuringFailingRedial(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.RedialBackoff = 200 * time.Microsecond
	cfg.RedialBackoffMax = 200 * time.Microsecond
	n := NewTCPNetworkWithConfig(cfg)
	defer n.Close()
	n.Announce("peer", freeAddr(t))

	var backedOff atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				err := n.Send("me", "peer", testMsg{})
				if err == nil {
					t.Error("send to a dead peer succeeded")
					return
				}
				if errors.Is(err, ErrDialBackoff) {
					backedOff.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if st := n.Stats(); backedOff.Load() == 0 || st.Dials < 2 {
		t.Fatalf("%d sends backed off over %d dials: the test never overlapped a redial with a back-off",
			backedOff.Load(), st.Dials)
	}
}

// TestTCPConcurrentFirstSendSinglefight verifies that racing first sends on
// a route share one dial instead of each opening (and then discarding) its
// own socket.
func TestTCPConcurrentFirstSendSingleflight(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	var got atomic.Int64
	if _, err := n.Listen("server", "127.0.0.1:0", func(NodeID, any) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var wg sync.WaitGroup
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- n.Send("client", "server", testMsg{Seq: i})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("racing first send: %v", err)
		}
	}
	if d := n.Stats().Dials; d != 1 {
		t.Fatalf("%d dials for one route, want 1 (singleflight)", d)
	}
	deadline := time.After(2 * time.Second)
	for got.Load() < racers {
		select {
		case <-deadline:
			t.Fatalf("delivered %d/%d", got.Load(), racers)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestTCPUnregisterSeversConnections: unregistering a node must close both
// its accepted streams (so the stale handler stops receiving) and outbound
// routes touching it, so a later re-listen gets a fresh dial instead of
// writes into a ghost.
func TestTCPUnregisterSeversConnections(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	n.log = obs.Discard()

	oldBox := make(chan int, 64)
	if _, err := n.Listen("b", "127.0.0.1:0", func(_ NodeID, msg any) {
		oldBox <- msg.(testMsg).Seq
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", testMsg{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-oldBox:
	case <-time.After(2 * time.Second):
		t.Fatal("first message not delivered")
	}

	n.Unregister("b")
	if err := n.Send("a", "b", testMsg{Seq: 2}); err == nil {
		// The conn was severed, so at best this errored; if the write won a
		// race into a dying socket it must still never reach the handler.
		t.Log("send immediately after unregister did not error (buffered); checking delivery instead")
	}

	newBox := make(chan int, 64)
	if _, err := n.Listen("b", "127.0.0.1:0", func(_ NodeID, msg any) {
		newBox <- msg.(testMsg).Seq
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := n.Send("a", "b", testMsg{Seq: 3})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send to re-registered node never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case seq := <-newBox:
		if seq != 3 {
			t.Fatalf("new handler got Seq=%d, want 3", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message after re-register not delivered to new handler")
	}
	select {
	case seq := <-oldBox:
		if seq >= 2 {
			t.Fatalf("stale handler received Seq=%d after unregister", seq)
		}
	default:
	}
}

// TestTCPPeerKilledMidStream floods a peer in another "process" (separate
// TCPNetwork) and kills it mid-stream. The sender must surface an error in
// bounded time — not wedge — and the decode side must tear down quietly.
func TestTCPPeerKilledMidStream(t *testing.T) {
	cfg := DefaultTCPConfig()
	cfg.WriteTimeout = 500 * time.Millisecond
	client := NewTCPNetworkWithConfig(cfg)
	defer client.Close()
	client.log = obs.Discard()

	server := NewTCPNetwork()
	server.log = obs.Discard()
	addr, err := server.Listen("server", "127.0.0.1:0", func(NodeID, any) {
		time.Sleep(time.Millisecond) // a mildly slow consumer
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Announce("server", addr)

	killed := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		server.Close() // the whole "process" dies
		close(killed)
	}()

	pad := make([]byte, 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := client.Send("client", "server", padMsg{Pad: pad}); err != nil {
			break // surfaced, as it must
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a killed peer kept succeeding for 10s")
		}
	}
	<-killed
}

// TestTCPListenerClosedDuringDecode closes the receiving side while large
// messages are mid-flight; nothing may panic or deadlock, and the sender
// must see an error in bounded time.
func TestTCPListenerClosedDuringDecode(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	n.log = obs.Discard()
	if _, err := n.Listen("sink", "127.0.0.1:0", func(NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		pad := make([]byte, 256<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := n.Send("src", "sink", padMsg{Seq: i, Pad: pad}); err != nil {
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond)
	n.Unregister("sink")
	select {
	case <-sendDone:
	case <-time.After(10 * time.Second):
		close(stop)
		t.Fatal("sender wedged after listener closed mid-decode")
	}
}

// TestTCPConcurrentSendClose hammers Send from many goroutines while the
// network shuts down; the only requirement is no race, no panic, and that
// post-close sends report ErrClosed.
func TestTCPConcurrentSendClose(t *testing.T) {
	n := NewTCPNetwork()
	n.log = obs.Discard()
	if _, err := n.Listen("server", "127.0.0.1:0", func(NodeID, any) {}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := n.Send(NodeID(fmt.Sprintf("c%d", g)), "server", testMsg{Seq: i}); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	n.Close()
	wg.Wait()
	if err := n.Send("late", "server", testMsg{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

// TestTCPBufferedFramingCoalesces sanity-checks the group-flush path under
// concurrency: many senders on one route, everything delivered in per-route
// order with no message lost.
func TestTCPBufferedFramingCoalesces(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	const senders, per = 8, 100
	var mu sync.Mutex
	seen := make(map[NodeID][]int)
	done := make(chan struct{})
	total := 0
	if _, err := n.Listen("server", "127.0.0.1:0", func(from NodeID, msg any) {
		mu.Lock()
		seen[from] = append(seen[from], msg.(testMsg).Seq)
		total++
		if total == senders*per {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := NodeID(fmt.Sprintf("s%d", s))
			for i := 0; i < per; i++ {
				if err := n.Send(id, "server", testMsg{Seq: i}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d", total, senders*per)
	}
	mu.Lock()
	defer mu.Unlock()
	for from, seqs := range seen {
		for i, s := range seqs {
			if s != i {
				t.Fatalf("route %s out of order at %d: got %d", from, i, s)
			}
		}
	}
}

// TestTCPStatsCountOwnNetwork: networks that share a registry share its
// unlabeled drizzle_rpc_* series, but each one's Stats counts only what it
// sent and wrote, so a sum of Stats over a cluster's networks counts every
// send once.
func TestTCPStatsCountOwnNetwork(t *testing.T) {
	const per = 50
	reg := metrics.NewRegistry()
	delivered := make(chan struct{}, 2*per)
	nets := make([]*TCPNetwork, 2)
	ids := []NodeID{"a", "b"}
	addrs := make([]string, 2)
	for i := range nets {
		nets[i] = NewTCPNetworkWithConfig(TCPConfig{Metrics: reg})
		defer nets[i].Close()
		var err error
		if addrs[i], err = nets[i].Listen(ids[i], "127.0.0.1:0", func(NodeID, any) { delivered <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nets {
		n.Announce(ids[1-i], addrs[1-i])
	}
	for i, n := range nets {
		for s := 0; s < per; s++ {
			if err := n.Send(ids[i], ids[1-i], testMsg{Seq: s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2*per; i++ {
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d/%d", i, 2*per)
		}
	}
	var writes int64
	for i, n := range nets {
		st := n.Stats()
		if st.Sent != per {
			t.Errorf("network %s: Stats().Sent = %d, want %d", ids[i], st.Sent, per)
		}
		if st.SocketWrites < 1 || st.SocketWrites > per {
			t.Errorf("network %s: Stats().SocketWrites = %d, want 1..%d", ids[i], st.SocketWrites, per)
		}
		writes += st.SocketWrites
	}
	if got := reg.Counter("drizzle_rpc_sent_total").Value(); got != 2*per {
		t.Errorf("registry drizzle_rpc_sent_total = %d, want %d", got, 2*per)
	}
	if got := reg.Counter("drizzle_rpc_socket_writes_total").Value(); got != writes {
		t.Errorf("registry drizzle_rpc_socket_writes_total = %d, want the networks' sum %d", got, writes)
	}
}

// TestRemovedOptionValues pins each transport option that used to be a
// TCPConfig or InMemConfig field to the default it had then.
func TestRemovedOptionValues(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"TCPConfig.DialTimeout", tcpDialTimeout, 3 * time.Second},
		{"TCPConfig.KeepAlive", tcpKeepAlive, 15 * time.Second},
		{"TCPConfig.WriteBuffer", tcpWriteBuffer, 64 << 10},
		{"InMemConfig.QueueLen", inMemQueueLen, 65536},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
