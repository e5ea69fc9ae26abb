package graphdb

import (
	"encoding/binary"
	"fmt"

	"mssg/internal/graph"
)

// The chunked adjacency layout the paper's MySQL and BerkeleyDB instances
// share (Fig 4.3), written once for reldb and btreedb. Vertex v's
// neighbours are a run of chunks at keys (v, 1), (v, 2), …, each
// holding up to ChunkCap little-endian 8-byte ids, and key (v, 0) holds
// the head record {tail uint32, count uint32}: the last chunk's sequence
// and how many ids it holds. An append touches only the head, the tail
// chunk and the chunks it starts.
//
// A back-end supplies the key-value store as two functions: get returns
// the value at (v, seq), nil when there is none, and put replaces it.

// ChunkCap is the neighbour capacity of one chunk: 1000 8-byte ids =
// 8000 bytes, the paper's ~8 KB blocks.
const ChunkCap = 1000

// ReadChunkHead returns v's head record read through get: the tail
// chunk's sequence and fill, or (0, 0) when v has no chunks.
func ReadChunkHead(v graph.VertexID, get func(v graph.VertexID, seq uint32) ([]byte, error)) (tail, count uint32, err error) {
	b, err := get(v, 0)
	if err != nil || b == nil {
		return 0, 0, err
	}
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("graphdb: chunk head of %d is %d bytes", v, len(b))
	}
	return binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), nil
}

// AppendChunkHead appends the head record {tail, count} to dst.
func AppendChunkHead(dst []byte, tail, count uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, tail), count)
}

// StoreChunked appends a validated batch to its sources' chunk runs. The
// batch is grouped by source, so each touched vertex reads its head and
// tail chunk once: the tail is extended while it has room, a full one
// is followed by a fresh chunk, every chunk changed is written through
// put, and the head last. put must not keep val.
func StoreChunked(edges []graph.Edge,
	get func(v graph.VertexID, seq uint32) ([]byte, error),
	put func(v graph.VertexID, seq uint32, val []byte) error) error {
	buf := make([]byte, 0, ChunkCap*8)
	return GroupBySource(edges, func(v graph.VertexID, ids []graph.VertexID) error {
		tail, count, err := ReadChunkHead(v, get)
		if err != nil {
			return err
		}
		buf = buf[:0]
		switch {
		case tail == 0:
			tail, count = 1, 0
		case count >= ChunkCap:
			tail, count = tail+1, 0
		default:
			b, err := get(v, tail)
			if err == nil && b == nil {
				err = fmt.Errorf("graphdb: tail chunk %d of %d is missing", tail, v)
			}
			if err != nil {
				return err
			}
			buf = append(buf, b...)
		}
		for len(ids) > 0 {
			take := min(len(ids), ChunkCap-int(count))
			for _, u := range ids[:take] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(u))
			}
			count += uint32(take)
			if err := put(v, tail, buf); err != nil {
				return err
			}
			if ids = ids[take:]; len(ids) > 0 {
				tail, count, buf = tail+1, 0, buf[:0]
			}
		}
		return put(v, 0, AppendChunkHead(buf[:0], tail, count))
	})
}

// DecodeChunk appends the ids a chunk holds to dst.
func DecodeChunk(dst []graph.VertexID, chunk []byte) []graph.VertexID {
	for i := 0; i+8 <= len(chunk); i += 8 {
		dst = append(dst, graph.VertexID(binary.LittleEndian.Uint64(chunk[i:])))
	}
	return dst
}
