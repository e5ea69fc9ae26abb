// Package cluster simulates the distributed-memory parallel machine MSSG
// was evaluated on (a 64-node Linux cluster, paper chapter 5).
//
// A Fabric is a set of numbered nodes connected by a message-passing
// transport. Each node holds an Endpoint through which it can send
// point-to-point messages, broadcast, and participate in a collective
// (one element-wise vector sum, which is also the barrier). Two fabrics
// are provided:
//
//   - the in-process fabric (NewInProc), where every node is a goroutine
//     and messages travel over Go channels — the default for experiments;
//   - the TCP fabric (NewTCP), where nodes exchange length-prefixed frames
//     over loopback sockets, exercising a real wire protocol.
//
// The abstraction mirrors what DataCutter gets from MPI in the paper:
// ordered, reliable, tagged point-to-point messages. Higher layers
// (package datacutter, the BFS in package query) are transport-agnostic.
package cluster

import (
	"context"
	"errors"
	"fmt"
)

// NodeID numbers the nodes of a fabric, 0..N-1.
type NodeID int

// ChannelID tags a logical communication channel (an MPI tag). Different
// services use disjoint channel ranges so their traffic never interleaves.
type ChannelID uint32

// Message is one delivered datagram.
type Message struct {
	From    NodeID
	Channel ChannelID
	Payload []byte
}

// ErrClosed is returned by endpoint operations after the fabric shuts
// down.
var ErrClosed = errors.New("cluster: fabric closed")

// ErrNodeDown is returned once a peer is considered failed: by the
// reliable layer when a node exceeds its heartbeat budget, and by the
// fault-injecting fabric on a node its Plan has crashed. Operations that
// would need the dead node fail fast with this error instead of blocking.
var ErrNodeDown = errors.New("cluster: node down")

// ErrTimeout is returned by the reliable layer when a send exhausts its
// retransmit budget or a receive passes its deadline without the peer
// being declared down. It marks a transient (retryable) failure, in
// contrast to ErrNodeDown.
var ErrTimeout = errors.New("cluster: operation timed out")

// Endpoint is one node's handle on the fabric. An Endpoint may be used
// from multiple goroutines; receives on distinct channels are independent.
type Endpoint interface {
	// ID returns this node's number.
	ID() NodeID
	// Nodes returns the fabric size.
	Nodes() int
	// Send delivers payload to node `to` on the given channel. The payload
	// is owned by the fabric after Send returns; callers must not reuse it.
	Send(to NodeID, ch ChannelID, payload []byte) error
	// Broadcast sends payload to every node except this one.
	Broadcast(ch ChannelID, payload []byte) error
	// Recv blocks until a message arrives on ch or the fabric closes.
	Recv(ch ChannelID) (Message, error)
	// RecvCtx is Recv that additionally unblocks when ctx is cancelled,
	// returning ctx.Err(). A queued message wins over a cancellation that
	// races with it.
	RecvCtx(ctx context.Context, ch ChannelID) (Message, error)
	// TryRecv returns a message if one is queued on ch; ok=false when the
	// queue is empty. It never blocks.
	TryRecv(ch ChannelID) (msg Message, ok bool, err error)
}

// Fabric is a cluster of nodes.
type Fabric interface {
	// Nodes returns the cluster size.
	Nodes() int
	// Endpoint returns node n's endpoint. Endpoints are created eagerly
	// and calling Endpoint repeatedly returns the same value.
	Endpoint(n NodeID) Endpoint
	// Close tears the fabric down; all pending and future receives fail
	// with ErrClosed.
	Close() error
}

// Validate checks a node id against a fabric size.
func Validate(n NodeID, size int) error {
	if n < 0 || int(n) >= size {
		return fmt.Errorf("cluster: node %d out of range [0,%d)", n, size)
	}
	return nil
}

// Owner returns the node that owns vertex-like key v under the globally
// known mapping the paper uses (GID % p, §4.2).
func Owner(v int64, nodes int) NodeID {
	if v < 0 {
		v = -v
	}
	return NodeID(v % int64(nodes))
}
