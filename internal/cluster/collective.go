package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
)

// Collective provides the one synchronization primitive the parallel BFS
// and live migration need on top of point-to-point messaging: an
// element-wise sum over a fixed-length vector, which is also the barrier.
// All nodes of a fabric must construct a Collective with the same channel
// pair and make the same calls in the same order, exactly as with MPI
// collectives.
//
// Implementation: a central-coordinator scheme. Node 0 gathers one message
// per peer on the "up" channel, combines, and answers on the "down"
// channel. A node cannot start round k+1 before its round-k reply arrives,
// so rounds never interleave and no sequence numbers are needed.
type Collective struct {
	ep     Endpoint
	chUp   ChannelID
	chDown ChannelID
	ctx    context.Context // nil: operations block until close
	parts  []NodeID        // nil: every fabric node participates
}

// NewCollective binds a collective context to an endpoint. chUp and chDown
// must be distinct and reserved for this use across the whole fabric.
func NewCollective(ep Endpoint, chUp, chDown ChannelID) *Collective {
	if chUp == chDown {
		panic("cluster: collective needs two distinct channels")
	}
	return &Collective{ep: ep, chUp: chUp, chDown: chDown}
}

// WithContext returns a copy whose operations additionally abort with
// ctx.Err() when ctx is cancelled. Every node of the collective must use
// the same cancellation discipline or a round may leave peers waiting on
// a reply that never comes.
func (c *Collective) WithContext(ctx context.Context) *Collective {
	cc := *c
	cc.ctx = ctx
	return &cc
}

// WithParticipants returns a copy whose operations span only the given
// nodes — the failover path's surviving subcluster. The coordinator
// becomes the lowest-numbered participant, and replies go point-to-point
// instead of Broadcast so dead non-participants are never addressed.
// nodes must be sorted ascending, duplicate-free, and include the local
// endpoint; every participant must pass the identical list.
func (c *Collective) WithParticipants(nodes []NodeID) *Collective {
	cc := *c
	cc.parts = append([]NodeID(nil), nodes...)
	return &cc
}

func (c *Collective) recv(ch ChannelID) (Message, error) {
	if c.ctx == nil {
		return c.ep.Recv(ch)
	}
	return c.ep.RecvCtx(c.ctx, ch)
}

// AllReduceSum replaces v, on every node, with the element-wise sum of
// every node's v, in one coordinator round. Every node must pass a
// vector of the same length; an empty vector is a barrier. A round with
// a malformed contribution fails on every node.
func (c *Collective) AllReduceSum(v []int64) error {
	n := c.ep.Nodes()
	root := NodeID(0)
	if c.parts != nil {
		n = len(c.parts)
		root = c.parts[0]
	}
	if n == 1 {
		return nil
	}
	if c.ep.ID() != root {
		if err := c.ep.Send(root, c.chUp, encode(v)); err != nil {
			return err
		}
		msg, err := c.recv(c.chDown)
		if err != nil {
			return err
		}
		clear(v)
		return addInto(v, msg.Payload)
	}
	// Gather every contribution even past a malformed one, so no message
	// of this round is left queued for the next.
	var bad error
	for i := 0; i < n-1; i++ {
		msg, err := c.recv(c.chUp)
		if err != nil {
			return err
		}
		if bad == nil {
			bad = addInto(v, msg.Payload)
		}
	}
	// A reply of one byte decodes as no vector, so a malformed round
	// fails on every peer too.
	reply := func() []byte {
		if bad != nil {
			return []byte{0}
		}
		return encode(v)
	}
	if c.parts != nil {
		for _, p := range c.parts {
			if p == root {
				continue
			}
			if err := c.ep.Send(p, c.chDown, reply()); err != nil {
				return err
			}
		}
	} else if err := c.ep.Broadcast(c.chDown, reply()); err != nil {
		return err
	}
	return bad
}

func encode(v []int64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// addInto adds the vector encoded in b to v element-wise.
func addInto(v []int64, b []byte) error {
	if len(b) != 8*len(v) {
		return fmt.Errorf("cluster: collective payload has %d bytes, want %d", len(b), 8*len(v))
	}
	for i := range v {
		v[i] += int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
