package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drizzle/internal/metrics"
	"drizzle/internal/obs"
)

// envelope is the unit framed onto TCP connections.
type envelope struct {
	From    NodeID
	To      NodeID
	Payload any
}

// TCPConfig tunes the TCP transport. The zero value is not usable; start
// from DefaultTCPConfig.
type TCPConfig struct {
	// DialTimeout bounds connection establishment to a peer.
	DialTimeout time.Duration
	// WriteTimeout is the per-write deadline covering one message's encode
	// and flush. A stalled peer (accepting but not reading, or silently
	// dead) surfaces as a send error within this bound instead of wedging
	// the route forever.
	WriteTimeout time.Duration
	// KeepAlive is the TCP keepalive period on both dialed and accepted
	// connections, so a dead peer is eventually detected even on an idle
	// route.
	KeepAlive time.Duration
	// RedialBackoff is the base delay before re-dialing a route whose last
	// dial failed; it doubles per consecutive failure up to
	// RedialBackoffMax. Sends during the backoff window fail fast with
	// ErrDialBackoff instead of starting a dial storm against a flaky peer.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential redial backoff.
	RedialBackoffMax time.Duration
	// WriteBuffer is the size of the per-connection bufio.Writer that
	// coalesces frames into fewer, larger syscalls.
	WriteBuffer int
	// InboundQueue is the per-connection delivery queue capacity. Socket
	// decoding is decoupled from handler execution through this queue; when
	// a slow handler lets it fill, further messages on the connection are
	// counted (InboundDropped) and dropped, like the in-memory transport's
	// injected faults — never blocking the decode loop.
	InboundQueue int

	// Metrics is the registry the transport counters register into
	// (drizzle_rpc_*). Nil-safe: without a registry the counters still work
	// (Stats keeps reporting) but are not exported.
	Metrics *metrics.Registry
	// Logger is the structured logger for transport warnings. Nil picks the
	// default stderr logger, scoped to component=transport.
	Logger *slog.Logger
}

// DefaultTCPConfig returns the production defaults.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		DialTimeout:      3 * time.Second,
		WriteTimeout:     5 * time.Second,
		KeepAlive:        15 * time.Second,
		RedialBackoff:    25 * time.Millisecond,
		RedialBackoffMax: 2 * time.Second,
		WriteBuffer:      64 << 10,
		InboundQueue:     4096,
	}
}

func (c TCPConfig) withDefaults() TCPConfig {
	d := DefaultTCPConfig()
	if c.DialTimeout <= 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = d.KeepAlive
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = d.RedialBackoff
	}
	if c.RedialBackoffMax < c.RedialBackoff {
		c.RedialBackoffMax = d.RedialBackoffMax
	}
	if c.WriteBuffer <= 0 {
		c.WriteBuffer = d.WriteBuffer
	}
	if c.InboundQueue <= 0 {
		c.InboundQueue = d.InboundQueue
	}
	return c
}

// ErrDialBackoff is returned by Send while a route is in its redial backoff
// window after a failed dial.
var ErrDialBackoff = errors.New("rpc: dial suppressed by backoff")

// TCPStatsSnapshot is a point-in-time copy of a TCPNetwork's counters.
type TCPStatsSnapshot struct {
	Sent            int64 // messages handed to the kernel (or coalesced behind a later flush)
	SendErrors      int64 // sends that failed (encode, deadline, broken conn)
	Dials           int64 // dial attempts
	DialErrors      int64 // dial attempts that failed
	DialsSuppressed int64 // sends rejected by redial backoff
	InboundDropped  int64 // inbound messages shed because a delivery queue was full
	SocketWrites    int64 // Write calls that reached a socket; Sent/SocketWrites is the coalescing factor
}

// TCPNetwork is a Network whose nodes live in different processes and talk
// over TCP. Each node runs a listener; senders dial lazily (singleflight,
// with exponential backoff after failures) and keep one persistent
// connection per (from, to) route. Within a route, message order is
// preserved: each connection has one decode goroutine feeding one delivery
// goroutine through a bounded queue. Unlike the in-memory transport, a
// node's handler may be invoked concurrently for messages from *different*
// peers — handlers must be concurrency-safe (the engine's are).
//
// Outbound frames are written through a per-connection bufio.Writer under a
// per-connection lock with a group-flush policy: a sender flushes only when
// no other sender is waiting on the same route, so concurrent small control
// messages coalesce into one syscall while a lone message is never delayed.
// Every write carries a deadline (TCPConfig.WriteTimeout), so a stalled
// peer turns into a send error on its own route and cannot wedge heartbeats
// or sends to other peers.
type TCPNetwork struct {
	cfg TCPConfig

	mu        sync.RWMutex
	listeners map[NodeID]*tcpListener
	addrs     map[NodeID]string // routing table: node -> host:port
	preferred map[NodeID]string // preferred listen addresses (SetListenAddr)
	conns     map[routeKey]*tcpConn
	closed    bool
	wg        sync.WaitGroup
	log       *slog.Logger

	// Dial bookkeeping, under its own lock so a slow dial never blocks
	// sends on established routes.
	dialMu   sync.Mutex
	dialing  map[routeKey]*dialCall
	backoffs map[routeKey]*backoffState

	sent            *metrics.Counter
	sendErrors      *metrics.Counter
	dials           *metrics.Counter
	dialErrors      *metrics.Counter
	dialsSuppressed *metrics.Counter
	inboundDropped  *metrics.Counter
	socketWrites    *metrics.Counter
}

type routeKey struct {
	from, to NodeID
}

// dialCall is the singleflight slot for one route: concurrent first sends
// share the winner's dial instead of racing their own.
type dialCall struct {
	done chan struct{}
	conn *tcpConn
	err  error
}

type backoffState struct {
	fails   int
	until   time.Time
	lastErr error
}

// tcpListener owns one node's accept loop and tracks its accepted
// connections so Unregister/Close can sever in-flight streams, not just
// stop accepting new ones.
type tcpListener struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (tl *tcpListener) track(c net.Conn) bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.closed {
		return false
	}
	if tl.conns == nil {
		tl.conns = make(map[net.Conn]struct{})
	}
	tl.conns[c] = struct{}{}
	return true
}

func (tl *tcpListener) untrack(c net.Conn) {
	tl.mu.Lock()
	delete(tl.conns, c)
	tl.mu.Unlock()
}

func (tl *tcpListener) close() {
	tl.mu.Lock()
	if tl.closed {
		tl.mu.Unlock()
		return
	}
	tl.closed = true
	conns := tl.conns
	tl.conns = nil
	tl.mu.Unlock()
	tl.ln.Close()
	for c := range conns {
		c.Close()
	}
}

// tcpConn is one outbound route. waiters counts senders queued on mu so the
// holder knows whether to flush or leave the buffered frames for the next
// sender (group flush).
type tcpConn struct {
	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	enc     *streamEncoder
	waiters atomic.Int32
	closed  atomic.Bool
	// deadline is the currently armed write deadline. Re-arming the kernel
	// deadline costs a poller update per call, so writeEnvelope refreshes
	// it only once at least half the budget has elapsed; every write still
	// sees at least WriteTimeout/2 and at most WriteTimeout of headroom.
	deadline time.Time
}

// countingWriter counts the Write calls that actually reach the socket
// (explicit flushes plus bufio's buffer-full spills), so Stats can report
// the frame-coalescing factor.
type countingWriter struct {
	w      io.Writer
	writes *metrics.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	cw.writes.Inc()
	return cw.w.Write(p)
}

func newTCPConn(c net.Conn, bufSize int, writes *metrics.Counter) *tcpConn {
	bw := bufio.NewWriterSize(countingWriter{w: c, writes: writes}, bufSize)
	return &tcpConn{c: c, bw: bw, enc: newStreamEncoder(bw)}
}

// close severs the socket. It deliberately does not take mu: a writer stuck
// inside a deadline-bounded syscall holds mu, and closing the socket is
// exactly what unblocks it.
func (tc *tcpConn) close() {
	if tc.closed.CompareAndSwap(false, true) {
		tc.c.Close()
	}
}

var _ Network = (*TCPNetwork)(nil)

// NewTCPNetwork returns an empty TCP network with DefaultTCPConfig. Nodes
// must be announced with Announce before anyone can send to them.
func NewTCPNetwork() *TCPNetwork {
	return NewTCPNetworkWithConfig(DefaultTCPConfig())
}

// NewTCPNetworkWithConfig returns an empty TCP network with the given
// transport tuning.
func NewTCPNetworkWithConfig(cfg TCPConfig) *TCPNetwork {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics // nil-safe: hands out live, unexported instruments
	return &TCPNetwork{
		cfg:             cfg,
		listeners:       make(map[NodeID]*tcpListener),
		addrs:           make(map[NodeID]string),
		conns:           make(map[routeKey]*tcpConn),
		dialing:         make(map[routeKey]*dialCall),
		backoffs:        make(map[routeKey]*backoffState),
		log:             obs.Component(cfg.Logger, "transport"),
		sent:            reg.Counter("drizzle_rpc_sent_total"),
		sendErrors:      reg.Counter("drizzle_rpc_send_errors_total"),
		dials:           reg.Counter("drizzle_rpc_dials_total"),
		dialErrors:      reg.Counter("drizzle_rpc_dial_errors_total"),
		dialsSuppressed: reg.Counter("drizzle_rpc_dials_suppressed_total"),
		inboundDropped:  reg.Counter("drizzle_rpc_inbound_dropped_total"),
		socketWrites:    reg.Counter("drizzle_rpc_socket_writes_total"),
	}
}

// Stats returns a snapshot of the transport counters.
func (n *TCPNetwork) Stats() TCPStatsSnapshot {
	return TCPStatsSnapshot{
		Sent:            n.sent.Value(),
		SendErrors:      n.sendErrors.Value(),
		Dials:           n.dials.Value(),
		DialErrors:      n.dialErrors.Value(),
		DialsSuppressed: n.dialsSuppressed.Value(),
		InboundDropped:  n.inboundDropped.Value(),
		SocketWrites:    n.socketWrites.Value(),
	}
}

// Announce adds or updates the address of a (possibly remote) node in the
// routing table.
func (n *TCPNetwork) Announce(id NodeID, addr string) {
	n.mu.Lock()
	n.addrs[id] = addr
	n.mu.Unlock()
}

// Addr returns the announced address of a node.
func (n *TCPNetwork) Addr(id NodeID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.addrs[id]
	return a, ok
}

// Listen starts a listener for node id on addr ("host:port", port 0 picks a
// free port) and registers the handler. It returns the bound address.
func (n *TCPNetwork) Listen(id NodeID, addr string, h Handler) (string, error) {
	if err := validateID(id); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	if _, ok := n.listeners[id]; ok {
		n.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("rpc: node %s already listening", id)
	}
	tl := &tcpListener{ln: ln, handler: h}
	n.listeners[id] = tl
	n.addrs[id] = ln.Addr().String()
	n.mu.Unlock()

	n.wg.Add(1)
	go n.accept(tl)
	return ln.Addr().String(), nil
}

// SetListenAddr tells Register which address to bind for a node instead of
// an ephemeral localhost port, so daemons can expose a fixed port.
func (n *TCPNetwork) SetListenAddr(id NodeID, addr string) {
	n.mu.Lock()
	if n.preferred == nil {
		n.preferred = make(map[NodeID]string)
	}
	n.preferred[id] = addr
	n.mu.Unlock()
}

// Register implements Network by listening on the preferred address for the
// node, or an ephemeral localhost port.
func (n *TCPNetwork) Register(id NodeID, h Handler) error {
	n.mu.Lock()
	addr, ok := n.preferred[id]
	n.mu.Unlock()
	if !ok {
		addr = "127.0.0.1:0"
	}
	_, err := n.Listen(id, addr, h)
	return err
}

func (n *TCPNetwork) accept(tl *tcpListener) {
	defer n.wg.Done()
	for {
		c, err := tl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(n.cfg.KeepAlive)
		}
		if !tl.track(c) {
			c.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(tl, c)
	}
}

// serveConn decodes frames off one accepted connection and hands them to a
// dedicated delivery goroutine through a bounded queue, so one slow handler
// (a fetch of a large shuffle block, say) cannot head-of-line-block the
// decode loop — and with it the peer's control messages on other routes.
// Queue overflow is shed: counted and dropped, exactly like the in-memory
// transport's injected message loss, which every protocol above already
// tolerates. A peer whose stream does not open with the magic fails the
// first decode and is logged and disconnected before anything is delivered.
func (n *TCPNetwork) serveConn(tl *tcpListener, c net.Conn) {
	defer n.wg.Done()
	defer tl.untrack(c)
	defer c.Close()

	queue := make(chan envelope, n.cfg.InboundQueue)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for env := range queue {
			tl.handler(env.From, env.Payload)
		}
	}()
	defer close(queue)

	warned := false
	dec := newStreamDecoder(bufio.NewReaderSize(c, 64<<10))
	for {
		from, _, msg, err := dec.Decode()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isConnClosed(err) {
				n.log.Warn("decode error", "remote", c.RemoteAddr().String(), "err", err)
			}
			return
		}
		select {
		case queue <- envelope{From: from, Payload: msg}:
		default:
			n.inboundDropped.Inc()
			if !warned {
				warned = true
				n.log.Warn("inbound queue full, shedding messages",
					"remote", c.RemoteAddr().String(), "cap", n.cfg.InboundQueue)
			}
		}
	}
}

// isConnClosed reports whether err is the expected noise of a torn-down
// connection rather than a protocol problem worth logging.
func isConnClosed(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection reset by peer") || strings.Contains(s, "broken pipe")
}

// Send implements Network. The first send on a route dials the destination
// (shared with concurrent senders, rate-limited by backoff after failures);
// subsequent sends reuse the connection. A send error tears the route down
// so the next send re-dials.
func (n *TCPNetwork) Send(from, to NodeID, msg any) error {
	key := routeKey{from, to}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	conn := n.conns[key]
	addr, haveAddr := n.addrs[to]
	n.mu.RUnlock()

	if conn == nil {
		if !haveAddr {
			return fmt.Errorf("%w: %s", ErrUnknownNode, to)
		}
		var err error
		conn, err = n.dialRoute(key, addr)
		if err != nil {
			return err
		}
	}

	if err := n.writeEnvelope(conn, envelope{From: from, To: to, Payload: msg}); err != nil {
		n.sendErrors.Inc()
		n.dropConn(key, conn)
		return fmt.Errorf("rpc: send %s->%s: %w", from, to, err)
	}
	n.sent.Inc()
	return nil
}

// writeEnvelope encodes one message onto the route under its write
// deadline. The flush is skipped when another sender is already waiting on
// the lock: that sender (or the last in line) inherits responsibility for
// flushing, which coalesces bursts of small frames into one syscall.
func (n *TCPNetwork) writeEnvelope(conn *tcpConn, env envelope) error {
	conn.waiters.Add(1)
	conn.mu.Lock()
	conn.waiters.Add(-1)
	defer conn.mu.Unlock()
	if conn.closed.Load() {
		return net.ErrClosed
	}
	if now := time.Now(); conn.deadline.Sub(now) < n.cfg.WriteTimeout/2 {
		conn.deadline = now.Add(n.cfg.WriteTimeout)
		conn.c.SetWriteDeadline(conn.deadline)
	}
	if err := conn.enc.Encode(env.From, env.To, env.Payload); err != nil {
		return err
	}
	if conn.waiters.Load() > 0 {
		return nil // a queued sender will flush (or fail) for us
	}
	return conn.bw.Flush()
}

// dialRoute resolves the connection for a route: reuse a racer's in-flight
// dial, honor the failure backoff, or dial fresh.
func (n *TCPNetwork) dialRoute(key routeKey, addr string) (*tcpConn, error) {
	n.dialMu.Lock()
	if call := n.dialing[key]; call != nil {
		n.dialMu.Unlock()
		<-call.done
		return call.conn, call.err
	}
	// A racer may have finished dialing between our conns check and here.
	n.mu.RLock()
	if conn := n.conns[key]; conn != nil {
		n.mu.RUnlock()
		n.dialMu.Unlock()
		return conn, nil
	}
	n.mu.RUnlock()
	if bs := n.backoffs[key]; bs != nil {
		if wait := time.Until(bs.until); wait > 0 {
			// bs is rewritten under dialMu by whichever dial fails next;
			// copy what the error reports before letting go of the lock.
			fails, lastErr := bs.fails, bs.lastErr
			n.dialMu.Unlock()
			n.dialsSuppressed.Inc()
			return nil, fmt.Errorf("%w: %s for %v after %d failure(s): %v",
				ErrDialBackoff, key.to, wait.Round(time.Millisecond), fails, lastErr)
		}
	}
	call := &dialCall{done: make(chan struct{})}
	n.dialing[key] = call
	n.dialMu.Unlock()

	call.conn, call.err = n.dial(key, addr)

	n.dialMu.Lock()
	delete(n.dialing, key)
	if call.err != nil {
		bs := n.backoffs[key]
		if bs == nil {
			bs = &backoffState{}
			n.backoffs[key] = bs
		}
		bs.fails++
		shift := bs.fails - 1
		if shift > 8 {
			shift = 8
		}
		d := n.cfg.RedialBackoff * (1 << uint(shift))
		if d > n.cfg.RedialBackoffMax {
			d = n.cfg.RedialBackoffMax
		}
		bs.until = time.Now().Add(d)
		bs.lastErr = call.err
	} else {
		delete(n.backoffs, key)
	}
	n.dialMu.Unlock()
	close(call.done)
	return call.conn, call.err
}

func (n *TCPNetwork) dial(key routeKey, addr string) (*tcpConn, error) {
	n.dials.Inc()
	d := net.Dialer{Timeout: n.cfg.DialTimeout, KeepAlive: n.cfg.KeepAlive}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		n.dialErrors.Inc()
		return nil, fmt.Errorf("rpc: dial %s (%s): %w", key.to, addr, err)
	}
	conn := newTCPConn(c, n.cfg.WriteBuffer, n.socketWrites)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	n.conns[key] = conn
	n.mu.Unlock()
	return conn, nil
}

// dropConn removes a broken connection from the route table (unless a newer
// one already replaced it) and severs the socket.
func (n *TCPNetwork) dropConn(key routeKey, conn *tcpConn) {
	n.mu.Lock()
	if n.conns[key] == conn {
		delete(n.conns, key)
	}
	n.mu.Unlock()
	conn.close()
}

// Unregister implements Network. Beyond stopping the listener, it severs
// every connection to or from the node — accepted streams mid-decode and
// outbound routes alike — so nothing keeps writing into (or delivering for)
// a node that no longer exists.
func (n *TCPNetwork) Unregister(id NodeID) {
	n.mu.Lock()
	tl, ok := n.listeners[id]
	if ok {
		delete(n.listeners, id)
	}
	delete(n.addrs, id)
	var stale []*tcpConn
	for key, conn := range n.conns {
		if key.from == id || key.to == id {
			stale = append(stale, conn)
			delete(n.conns, key)
		}
	}
	n.mu.Unlock()
	if ok {
		tl.close()
	}
	for _, c := range stale {
		c.close()
	}
}

// Close implements Network.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	listeners := n.listeners
	conns := n.conns
	n.listeners = make(map[NodeID]*tcpListener)
	n.conns = make(map[routeKey]*tcpConn)
	n.mu.Unlock()
	for _, tl := range listeners {
		tl.close()
	}
	for _, c := range conns {
		c.close()
	}
	n.wg.Wait()
}
