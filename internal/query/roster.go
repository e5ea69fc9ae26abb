package query

import (
	"context"
	"fmt"
	"sort"

	"mssg/internal/cluster"
	"mssg/internal/graph"
)

// roster is the set of back-end nodes one query run spans. The normal
// case is the full fabric; the failover path runs on the survivors only,
// and every routing, exchange, and collective decision consults the
// roster instead of assuming [0, p).
type roster struct {
	nodes []cluster.NodeID // ascending, duplicate-free
	in    []bool           // indexed by NodeID over the whole fabric
	p     int              // fabric size
}

// newRoster validates active against a p-node fabric. nil active means
// all nodes. The list must be ascending, duplicate-free, non-empty, and
// in range — a malformed roster would desynchronize the collectives, so
// it is rejected up front.
func newRoster(p int, active []cluster.NodeID) (*roster, error) {
	r := &roster{p: p, in: make([]bool, p)}
	if active == nil {
		r.nodes = make([]cluster.NodeID, p)
		for i := range r.nodes {
			r.nodes[i] = cluster.NodeID(i)
			r.in[i] = true
		}
		return r, nil
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("query: empty active node set")
	}
	if !sort.SliceIsSorted(active, func(i, j int) bool { return active[i] < active[j] }) {
		return nil, fmt.Errorf("query: active nodes %v not ascending", active)
	}
	r.nodes = append([]cluster.NodeID(nil), active...)
	for i, n := range r.nodes {
		if err := cluster.Validate(n, p); err != nil {
			return nil, err
		}
		if i > 0 && r.nodes[i-1] == n {
			return nil, fmt.Errorf("query: duplicate active node %d", n)
		}
		r.in[n] = true
	}
	return r, nil
}

// partial reports whether any fabric node is excluded.
func (r *roster) partial() bool { return len(r.nodes) < r.p }

func (r *roster) size() int { return len(r.nodes) }

func (r *roster) contains(n cluster.NodeID) bool {
	return int(n) >= 0 && int(n) < len(r.in) && r.in[n]
}

// first is the lowest-numbered member: the coordinator/driver role that
// node 0 plays on a full fabric.
func (r *roster) first() cluster.NodeID { return r.nodes[0] }

// runNodes is the argument for cluster.RunOn: nil (all) when full, the
// member list when partial.
func (r *roster) runNodes() []cluster.NodeID {
	if !r.partial() {
		return nil
	}
	return r.nodes
}

// authority deals vertex v to one roster member deterministically — the
// counting authority the broadcast-ownership k-hop uses so each vertex
// is tallied exactly once. On a full roster it coincides with
// cluster.Owner's GID % p mapping.
func (r *roster) authority(v graph.VertexID) cluster.NodeID {
	x := int64(v)
	if x < 0 {
		x = -x
	}
	return r.nodes[x%int64(len(r.nodes))]
}

// vertexRouter resolves which roster member serves a vertex's adjacency.
// With a replica directory it walks the vertex's ordered replica list
// and picks the first live member (a non-primary pick is a replica
// read); without one, the single owner either is in the roster or the
// vertex is unreachable. Safe for concurrent use as long as the owner
// and replicas functions are.
type vertexRouter struct {
	rst      *roster
	owner    func(v graph.VertexID) cluster.NodeID
	replicas func(v graph.VertexID) []cluster.NodeID
}

// route returns the serving node for v, whether that node is a
// non-primary replica, and whether any live node serves v at all.
func (rt *vertexRouter) route(v graph.VertexID) (dest cluster.NodeID, replica, ok bool) {
	if rt.replicas == nil || !rt.rst.partial() {
		// Fast path: on a full roster the primary is always live, and the
		// primary replica is by contract the owner — no list allocation.
		o := rt.owner(v)
		return o, false, rt.rst.contains(o)
	}
	for i, n := range rt.replicas(v) {
		if rt.rst.contains(n) {
			return n, i > 0, true
		}
	}
	return 0, false, false
}

// activeEndpoint filters a fabric endpoint's failure reporting down to
// the roster: a receive that fails only because an *excluded* peer is
// declared down is retried (the reliable layer's Recv fails fast on any
// down peer, but a failover run has already routed around that peer), a
// failure naming any roster member still surfaces. Sends are not
// filtered: partial-roster collectives run WithParticipants and reply
// point-to-point, so nothing broadcasts through this wrapper. The inner
// receive blocks for one poll interval per attempt, so the retry loop
// does not spin.
type activeEndpoint struct {
	cluster.Endpoint
	rst *roster
}

// wrapActive returns ep filtered to rst, or ep itself for a full roster
// (no behavior change on the normal path).
func wrapActive(ep cluster.Endpoint, rst *roster) cluster.Endpoint {
	if !rst.partial() {
		return ep
	}
	return &activeEndpoint{Endpoint: ep, rst: rst}
}

// foreignOnly reports whether err is a down-declaration naming only
// nodes outside the roster.
func (a *activeEndpoint) foreignOnly(err error) bool {
	downs := cluster.DownNodes(err)
	if len(downs) == 0 {
		return false
	}
	for _, n := range downs {
		if a.rst.contains(n) {
			return false
		}
	}
	return true
}

func (a *activeEndpoint) Recv(ch cluster.ChannelID) (cluster.Message, error) {
	for {
		msg, err := a.Endpoint.Recv(ch)
		if err != nil && a.foreignOnly(err) {
			continue
		}
		return msg, err
	}
}

func (a *activeEndpoint) RecvCtx(ctx context.Context, ch cluster.ChannelID) (cluster.Message, error) {
	for {
		msg, err := a.Endpoint.RecvCtx(ctx, ch)
		if err != nil && a.foreignOnly(err) {
			// Keep honoring cancellation between filtered attempts; the
			// inner receive also checks it once per poll interval.
			if cerr := ctx.Err(); cerr != nil {
				return cluster.Message{}, cerr
			}
			continue
		}
		return msg, err
	}
}

func (a *activeEndpoint) TryRecv(ch cluster.ChannelID) (cluster.Message, bool, error) {
	msg, ok, err := a.Endpoint.TryRecv(ch)
	if err != nil && a.foreignOnly(err) {
		// Nothing queued and only excluded peers are down: simply not
		// ready, exactly as on a healthy fabric.
		return cluster.Message{}, false, nil
	}
	return msg, ok, err
}
