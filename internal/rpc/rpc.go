// Package rpc provides the messaging layer both engines run on: a Network
// interface with two implementations — an in-process transport with
// configurable latency, jitter and bandwidth (used to emulate a cluster's
// control-plane costs on one machine, and to inject failures in tests) and a
// real TCP transport with a hand-rolled binary codec (used by the
// cmd/drizzle-worker and cmd/drizzle-driver daemons).
//
// The transport is deliberately one-way message passing, not request/reply:
// the Drizzle protocols (asynchronous task status updates, worker-to-worker
// data-ready notifications) are fire-and-forget, and building them on
// message passing keeps the driver free of blocking RPC stalls. Request/
// reply (shuffle fetches) is layered on top with reply-to message IDs.
package rpc

import (
	"errors"
	"fmt"
)

// NodeID identifies a node on the network ("driver", "worker-3", ...).
type NodeID string

// Handler receives messages delivered to a registered node. Handlers for a
// given node are invoked sequentially in delivery order; implementations
// that need concurrency hand off to their own goroutines.
type Handler func(from NodeID, msg any)

// Network is the transport shared by drivers and workers.
type Network interface {
	// Register attaches a handler for node id. It returns an error if the
	// id is already registered.
	Register(id NodeID, h Handler) error
	// Unregister detaches a node; subsequent sends to it fail.
	Unregister(id NodeID)
	// Send delivers msg from one node to another. Delivery is asynchronous;
	// an error means the message was definitely not delivered (unknown or
	// failed destination). Messages between a live pair of nodes are
	// delivered reliably and in order.
	Send(from, to NodeID, msg any) error
	// Close shuts the network down and stops all delivery.
	Close()
}

// Announcer is implemented by transports that need explicit routing
// tables (TCP): peers must be announced before they can be dialed.
type Announcer interface {
	Announce(id NodeID, addr string)
	Addr(id NodeID) (string, bool)
}

// FailureInjector is implemented by transports that can simulate node
// failures: messages to and from a failed node vanish, as they would when a
// machine dies.
type FailureInjector interface {
	Fail(id NodeID)
	Recover(id NodeID)
}

// ServiceSlower is implemented by transports that can simulate degraded
// machines: ServiceMultiplier reports the factor by which node id's task
// service time is currently stretched (1 = healthy). Workers consult it
// around task execution; it is a property of the simulated machine, not of
// any network link, but it lives on the transport because that is the one
// object a chaos harness shares with every node.
type ServiceSlower interface {
	ServiceMultiplier(id NodeID) float64
}

// Sizer lets a message report its approximate wire size so the in-memory
// transport can charge bandwidth for it. Messages that do not implement
// Sizer are charged defaultWireSize bytes.
type Sizer interface {
	WireSize() int
}

const defaultWireSize = 256

// ErrUnknownNode is returned by Send for unregistered destinations.
var ErrUnknownNode = errors.New("rpc: unknown node")

// ErrNodeFailed is returned by Send when the source or destination has been
// failed by a FailureInjector.
var ErrNodeFailed = errors.New("rpc: node failed")

// ErrClosed is returned after the network is closed.
var ErrClosed = errors.New("rpc: network closed")

func wireSize(msg any) int {
	if s, ok := msg.(Sizer); ok {
		if n := s.WireSize(); n > 0 {
			return n
		}
	}
	return defaultWireSize
}

func validateID(id NodeID) error {
	if id == "" {
		return fmt.Errorf("rpc: empty node id")
	}
	return nil
}
