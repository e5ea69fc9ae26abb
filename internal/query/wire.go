package query

import (
	"encoding/binary"
	"fmt"

	"mssg/internal/graph"
)

// Fringe wire format: a kind byte, then little-endian uint64 vertex ids
// — bare for fkChunk, (vertex, parent) pairs for fkChunkP, none for the
// end-of-level marker fkDone.
const (
	fkChunk  byte = 0 // fringe vertex ids
	fkDone   byte = 1 // sender finished this level
	fkChunkP byte = 2 // (vertex, parent) pairs, for path reconstruction
)

func encodeChunk(ids []graph.VertexID) []byte {
	b := make([]byte, 1+8*len(ids))
	b[0] = fkChunk
	for i, v := range ids {
		binary.LittleEndian.PutUint64(b[1+8*i:], uint64(v))
	}
	return b
}

func decodeChunk(p []byte) ([]graph.VertexID, error) {
	if len(p) < 1 || (len(p)-1)%8 != 0 {
		return nil, fmt.Errorf("query: bad fringe frame of %d bytes", len(p))
	}
	ids := make([]graph.VertexID, (len(p)-1)/8)
	for i := range ids {
		ids[i] = graph.VertexID(binary.LittleEndian.Uint64(p[1+8*i:]))
	}
	return ids, nil
}

func encodeChunkPairs(pairs []graph.Edge) []byte {
	// Reuse Edge as a (vertex=Src, parent=Dst) pair carrier.
	b := make([]byte, 1+16*len(pairs))
	b[0] = fkChunkP
	for i, pr := range pairs {
		binary.LittleEndian.PutUint64(b[1+16*i:], uint64(pr.Src))
		binary.LittleEndian.PutUint64(b[9+16*i:], uint64(pr.Dst))
	}
	return b
}

func decodeChunkPairs(p []byte) ([]graph.Edge, error) {
	if len(p) < 1 || (len(p)-1)%16 != 0 {
		return nil, fmt.Errorf("query: bad paired fringe frame of %d bytes", len(p))
	}
	pairs := make([]graph.Edge, (len(p)-1)/16)
	for i := range pairs {
		pairs[i] = graph.Edge{
			Src: graph.VertexID(binary.LittleEndian.Uint64(p[1+16*i:])),
			Dst: graph.VertexID(binary.LittleEndian.Uint64(p[9+16*i:])),
		}
	}
	return pairs, nil
}
