package rpc

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// InMemConfig controls the simulated network characteristics of the
// in-process transport. The defaults (zero value) deliver instantly, which
// is what unit tests want. Experiments use EC2LikeConfig to reproduce the
// control-plane costs the paper measures on a real cluster.
type InMemConfig struct {
	// Latency is the one-way propagation delay applied to every message.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message.
	Jitter time.Duration
	// BytesPerSec, if non-zero, models link bandwidth: a message of n
	// bytes adds n/BytesPerSec of serialization delay.
	BytesPerSec int64
	// Seed seeds the jitter source; 0 means a fixed default seed so runs
	// are reproducible.
	Seed int64
	// RoundTrip, when set, passes every message through the wire codec's
	// value encoding before delivery: the handler receives
	// Decode(Encode(msg)) instead of the sender's value. The in-process
	// transport normally passes values untouched; round-tripping exercises
	// the exact serialization the TCP transport would, which is how the
	// chaos harness checks that the codec changes no verdict under faults.
	// Encoded size also replaces the Sizer estimate for bandwidth charging.
	RoundTrip bool
}

// EC2LikeConfig returns the configuration used by the end-to-end streaming
// experiments: ~0.5ms one-way latency with mild jitter, which yields the
// ~1ms control-plane round trips that make per-micro-batch coordination
// expensive, exactly the regime the paper studies.
func EC2LikeConfig() InMemConfig {
	return InMemConfig{
		Latency:     500 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		BytesPerSec: 1 << 30, // ~1 GB/s, r3.xlarge-ish
	}
}

// inMemQueueLen is the per-node inbox capacity. Sends to a full inbox
// block, providing backpressure like TCP would.
const inMemQueueLen = 65536

type inMemMessage struct {
	from      NodeID
	msg       any
	deliverAt time.Time
}

type inMemNode struct {
	handler Handler
	inbox   chan inMemMessage
	done    chan struct{}
}

// InMemNetwork is the in-process Network implementation.
type InMemNetwork struct {
	cfg InMemConfig

	mu     sync.Mutex
	nodes  map[NodeID]*inMemNode
	failed map[NodeID]bool
	closed bool
	rng    *rand.Rand
	fault  *FaultPlan
	held   map[NodeID][]*heldMessage
	wg     sync.WaitGroup
}

// heldMessage is a message stashed by a reorder rule: it re-enters the
// destination's inbox only after `remaining` later sends to the same
// destination (or after a failsafe timer), so later messages overtake it.
type heldMessage struct {
	m         inMemMessage
	node      *inMemNode
	remaining int
	released  bool
}

var _ Network = (*InMemNetwork)(nil)
var _ FailureInjector = (*InMemNetwork)(nil)

// NewInMemNetwork returns an in-process network with the given config.
func NewInMemNetwork(cfg InMemConfig) *InMemNetwork {
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	return &InMemNetwork{
		cfg:    cfg,
		nodes:  make(map[NodeID]*inMemNode),
		failed: make(map[NodeID]bool),
		rng:    rand.New(rand.NewSource(seed)),
		held:   make(map[NodeID][]*heldMessage),
	}
}

// SetFaultPlan installs (or, with nil, removes) a fault-injection plan.
// Subsequent sends consult it; messages already in flight are unaffected.
func (n *InMemNetwork) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	n.fault = p
	n.mu.Unlock()
}

// ServiceMultiplier implements ServiceSlower: it reports the SlowWorker
// service-time multiplier the installed fault plan (if any) prescribes for
// node id. Healthy nodes — and all nodes when no plan is installed — get 1.
func (n *InMemNetwork) ServiceMultiplier(id NodeID) float64 {
	n.mu.Lock()
	plan := n.fault
	n.mu.Unlock()
	if plan == nil {
		return 1
	}
	return plan.serviceMultiplier(id)
}

// Register implements Network.
func (n *InMemNetwork) Register(id NodeID, h Handler) error {
	if err := validateID(id); err != nil {
		return err
	}
	if h == nil {
		return ErrUnknownNode
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return ErrUnknownNode
	}
	node := &inMemNode{
		handler: h,
		inbox:   make(chan inMemMessage, inMemQueueLen),
		done:    make(chan struct{}),
	}
	n.nodes[id] = node
	delete(n.failed, id)
	n.wg.Add(1)
	go n.dispatch(id, node)
	return nil
}

// dispatch delivers inbox messages sequentially, honoring each message's
// deliverAt time. Waiting on deliverAt in the dispatcher (rather than with
// per-message timers) preserves FIFO delivery per receiver, which the
// pre-scheduling protocol relies on.
func (n *InMemNetwork) dispatch(id NodeID, node *inMemNode) {
	defer n.wg.Done()
	for {
		select {
		case <-node.done:
			return
		case m := <-node.inbox:
			if d := time.Until(m.deliverAt); d > 0 {
				select {
				case <-time.After(d):
				case <-node.done:
					return
				}
			}
			// A node failed mid-flight should not process queued messages:
			// a dead machine loses its socket buffers too.
			n.mu.Lock()
			dead := n.failed[id] || n.closed
			n.mu.Unlock()
			if dead {
				continue
			}
			node.handler(m.from, m.msg)
		}
	}
}

// Unregister implements Network.
func (n *InMemNetwork) Unregister(id NodeID) {
	n.mu.Lock()
	node, ok := n.nodes[id]
	if ok {
		delete(n.nodes, id)
	}
	n.mu.Unlock()
	if ok {
		close(node.done)
	}
}

// Send implements Network.
func (n *InMemNetwork) Send(from, to NodeID, msg any) error {
	wireBytes := -1
	if n.cfg.RoundTrip {
		b, err := DefaultCodec.EncodeMessage(nil, msg)
		if err != nil {
			return fmt.Errorf("rpc: encode %T: %w", msg, err)
		}
		decoded, err := DefaultCodec.DecodeMessage(b)
		if err != nil {
			return fmt.Errorf("rpc: decode %T: %w", msg, err)
		}
		msg = decoded
		wireBytes = len(b)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.failed[from] || n.failed[to] {
		n.mu.Unlock()
		return ErrNodeFailed
	}
	node, ok := n.nodes[to]
	if !ok {
		n.mu.Unlock()
		return ErrUnknownNode
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if n.cfg.BytesPerSec > 0 {
		size := wireBytes
		if size < 0 {
			size = wireSize(msg)
		}
		delay += time.Duration(int64(size) * int64(time.Second) / n.cfg.BytesPerSec)
	}
	plan := n.fault
	n.mu.Unlock()

	var dec faultDecision
	if plan != nil {
		dec = plan.decide(from, to, msg)
		if dec.drop {
			// Silent loss: the sender believes the message went out, exactly
			// like a packet eaten by the network. Returning an error here
			// would leak the fault to the caller.
			return nil
		}
		delay += dec.extraDelay
	}

	m := inMemMessage{from: from, msg: msg, deliverAt: time.Now().Add(delay)}
	if dec.hold {
		n.holdForReorder(to, node, m, dec)
		return nil
	}
	n.enqueue(node, m)
	if dec.duplicate {
		dup := m
		dup.deliverAt = dup.deliverAt.Add(dec.dupDelay)
		n.enqueue(node, dup)
	}
	// Only messages that actually entered the inbox overtake held ones; a
	// held message must not count its own send against its release span.
	n.releaseOvertaken(to)
	return nil
}

// enqueue places a message in a node's inbox, giving up if the node was
// unregistered.
func (n *InMemNetwork) enqueue(node *inMemNode, m inMemMessage) {
	select {
	case node.inbox <- m:
	case <-node.done:
	}
}

// holdForReorder stashes a message so that up to dec.holdCount later sends
// to the same destination overtake it, with a failsafe timer bounding the
// hold so a quiet destination still receives it.
func (n *InMemNetwork) holdForReorder(to NodeID, node *inMemNode, m inMemMessage, dec faultDecision) {
	h := &heldMessage{m: m, node: node, remaining: dec.holdCount}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.held[to] = append(n.held[to], h)
	n.mu.Unlock()
	time.AfterFunc(dec.holdMax, func() { n.releaseHeld(to, h) })
}

// releaseOvertaken counts one overtaking send against every message held
// for the destination and re-injects the ones whose span is exhausted.
func (n *InMemNetwork) releaseOvertaken(to NodeID) {
	n.mu.Lock()
	var release []*heldMessage
	live := n.held[to][:0]
	for _, h := range n.held[to] {
		if h.released {
			continue
		}
		h.remaining--
		if h.remaining <= 0 {
			h.released = true
			release = append(release, h)
			continue
		}
		live = append(live, h)
	}
	if len(live) == 0 {
		delete(n.held, to)
	} else {
		n.held[to] = live
	}
	n.mu.Unlock()
	for _, h := range release {
		n.enqueue(h.node, h.m)
	}
}

// releaseHeld is the failsafe path: flush one held message if still pending.
func (n *InMemNetwork) releaseHeld(to NodeID, h *heldMessage) {
	n.mu.Lock()
	if h.released {
		n.mu.Unlock()
		return
	}
	h.released = true
	live := n.held[to][:0]
	for _, o := range n.held[to] {
		if o != h && !o.released {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		delete(n.held, to)
	} else {
		n.held[to] = live
	}
	n.mu.Unlock()
	n.enqueue(h.node, h.m)
}

// Fail implements FailureInjector: messages to and from id are dropped and
// its queued messages are discarded, emulating a machine death.
func (n *InMemNetwork) Fail(id NodeID) {
	n.mu.Lock()
	n.failed[id] = true
	n.mu.Unlock()
}

// Recover implements FailureInjector: the node resumes sending/receiving.
func (n *InMemNetwork) Recover(id NodeID) {
	n.mu.Lock()
	delete(n.failed, id)
	n.mu.Unlock()
}

// Close implements Network.
func (n *InMemNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*inMemNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	n.nodes = make(map[NodeID]*inMemNode)
	n.mu.Unlock()
	for _, node := range nodes {
		close(node.done)
	}
	n.wg.Wait()
}
