package query

import (
	"encoding/binary"
	"fmt"

	"mssg/internal/graph"
)

// Path reconstruction. The paper's BFS reports the path *length* (its
// figures bucket queries by it); a relationship-analysis user usually
// wants the path itself — which entities connect A to B. When
// BFSConfig.ReturnPath is set, the level-synchronous BFS records each
// vertex's BFS parent (fringe chunks carry (vertex, parent) pairs so the
// owner learns who discovered its vertices) and, once the destination is
// found, node 0 walks the distributed parent chain backwards with
// point-to-point lookups.

// Path-walk wire format: kind byte + one or two vertex ids.
const (
	pkLookup  byte = 0 // node 0 asks the owner for parent[v]
	pkReply   byte = 1 // owner answers with parent[v]
	pkMissing byte = 2 // owner has no parent record for v (corruption)
	pkDone    byte = 3 // node 0 ends the walk; everyone exits
)

func encodePathMsg(kind byte, v graph.VertexID) []byte {
	b := make([]byte, 9)
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], uint64(v))
	return b
}

func decodePathMsg(p []byte) (byte, graph.VertexID, error) {
	if len(p) != 9 {
		return 0, 0, fmt.Errorf("query: bad path-walk frame of %d bytes", len(p))
	}
	return p[0], graph.VertexID(binary.LittleEndian.Uint64(p[1:])), nil
}

// walkParents reconstructs source←dest from the distributed parent maps.
// The roster's first node drives (node 0 on a full fabric); every other
// roster node services lookups until pkDone. Lookups are routed with the
// same vertexRouter the search used, so each parent record is requested
// from the node that actually absorbed the vertex — including replicas
// standing in for a dead primary. Returns the path source..dest on the
// driver, nil elsewhere.
func walkParents(k *kernel) ([]graph.VertexID, error) {
	ctx, ep, rst, cfg, parents, pathLen := k.ctx, k.ep, k.rst, &k.tr.BFSConfig, k.parents, k.level
	drv := rst.first()
	chPathWalk := k.qc.pathWalk

	if k.self != drv {
		// Serve lookups until the driver finishes.
		for {
			msg, err := ep.RecvCtx(ctx, chPathWalk)
			if err != nil {
				return nil, err
			}
			kind, v, err := decodePathMsg(msg.Payload)
			if err != nil {
				return nil, err
			}
			switch kind {
			case pkDone:
				return nil, nil
			case pkLookup:
				parent, ok := parents[v]
				reply := encodePathMsg(pkReply, parent)
				if !ok {
					reply = encodePathMsg(pkMissing, 0)
				}
				if err := ep.Send(msg.From, chPathWalk, reply); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("query: unexpected path-walk frame %d on servant", kind)
			}
		}
	}

	// The driver runs the backward walk.
	finish := func(path []graph.VertexID, err error) ([]graph.VertexID, error) {
		for _, q := range rst.nodes {
			if q == drv {
				continue
			}
			if sendErr := ep.Send(q, chPathWalk, encodePathMsg(pkDone, 0)); sendErr != nil && err == nil {
				err = sendErr
			}
		}
		return path, err
	}

	path := []graph.VertexID{cfg.Dest}
	v := cfg.Dest
	for v != cfg.Source {
		if int32(len(path)) > pathLen+1 {
			return finish(nil, fmt.Errorf("query: parent chain longer than path length %d", pathLen))
		}
		owner, _, ok := k.rt.route(v)
		if cfg.Ownership == BroadcastFringe {
			// Every roster node absorbed every discovery; deal lookups out
			// deterministically instead of insisting on the owner.
			owner, ok = rst.authority(v), true
		}
		if !ok {
			return finish(nil, fmt.Errorf("query: no live replica holds the parent of vertex %d: %w", v, ErrNoLiveReplica))
		}
		var parent graph.VertexID
		if owner == drv {
			pv, ok := parents[v]
			if !ok {
				return finish(nil, fmt.Errorf("query: no parent recorded for vertex %d", v))
			}
			parent = pv
		} else {
			if err := ep.Send(owner, chPathWalk, encodePathMsg(pkLookup, v)); err != nil {
				return finish(nil, err)
			}
			msg, err := ep.RecvCtx(ctx, chPathWalk)
			if err != nil {
				return finish(nil, err)
			}
			kind, pv, err := decodePathMsg(msg.Payload)
			if err != nil {
				return finish(nil, err)
			}
			if kind == pkMissing {
				return finish(nil, fmt.Errorf("query: node %d has no parent for vertex %d", owner, v))
			}
			if kind != pkReply {
				return finish(nil, fmt.Errorf("query: unexpected path-walk frame %d on driver", kind))
			}
			parent = pv
		}
		path = append(path, parent)
		v = parent
	}
	// Reverse into source..dest order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return finish(path, nil)
}
