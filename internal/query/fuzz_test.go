package query

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mssg/internal/graph"
)

// FuzzFringeChunkDecode: the fringe chunk decoders must never panic on
// arbitrary frames, and every frame they accept must survive an
// encode(decode(p)) round trip back to the original bytes — the fringe
// exchange deduplicates nothing at the codec layer, so a lossy decode
// would silently corrupt a search.
func FuzzFringeChunkDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{fkChunk})
	f.Add([]byte{fkDone})
	f.Add(encodeChunk([]graph.VertexID{0, 1, graph.MaxVertexID}))
	f.Add(encodeChunkPairs([]graph.Edge{{Src: 7, Dst: 3}}))
	f.Add(encodePathMsg(pkLookup, 42))
	f.Fuzz(func(t *testing.T, p []byte) {
		if ids, err := decodeChunk(p); err == nil {
			re := encodeChunk(ids)
			// decodeChunk ignores the kind byte; normalize it before
			// comparing the round trip.
			want := append([]byte{fkChunk}, p[1:]...)
			if !bytes.Equal(re, want) {
				t.Fatalf("chunk round trip: %x -> %v -> %x", p, ids, re)
			}
		}
		if pairs, err := decodeChunkPairs(p); err == nil {
			re := encodeChunkPairs(pairs)
			want := append([]byte{fkChunkP}, p[1:]...)
			if !bytes.Equal(re, want) {
				t.Fatalf("pair round trip: %x -> %v -> %x", p, pairs, re)
			}
		}
		if kind, v, err := decodePathMsg(p); err == nil {
			if re := encodePathMsg(kind, v); !bytes.Equal(re, p) {
				t.Fatalf("path-msg round trip: %x -> (%d,%d) -> %x", p, kind, v, re)
			}
		}
	})
}

// FuzzFringeChunkRoundTrip drives the encoders from fuzzed id material:
// whatever ids we encode must decode back exactly.
func FuzzFringeChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ids := make([]graph.VertexID, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			var v uint64
			for j := 0; j < 8; j++ {
				v |= uint64(raw[i+j]) << (8 * j)
			}
			ids = append(ids, graph.VertexID(v))
		}
		got, err := decodeChunk(encodeChunk(ids))
		if err != nil {
			t.Fatalf("decodeChunk(encodeChunk(%v)): %v", ids, err)
		}
		if len(got) != len(ids) {
			t.Fatalf("round trip length %d != %d", len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("round trip ids[%d] = %d, want %d", i, got[i], ids[i])
			}
		}

		pairs := make([]graph.Edge, 0, len(ids)/2)
		for i := 0; i+1 < len(ids); i += 2 {
			pairs = append(pairs, graph.Edge{Src: ids[i], Dst: ids[i+1]})
		}
		gotP, err := decodeChunkPairs(encodeChunkPairs(pairs))
		if err != nil {
			t.Fatalf("decodeChunkPairs(encodeChunkPairs(%v)): %v", pairs, err)
		}
		if len(gotP) != len(pairs) {
			t.Fatalf("pair round trip length %d != %d", len(gotP), len(pairs))
		}
		for i := range pairs {
			if gotP[i] != pairs[i] {
				t.Fatalf("pair round trip [%d] = %v, want %v", i, gotP[i], pairs[i])
			}
		}
	})
}

// FuzzVisitedMarkIfNew checks MemVisited against a plain-map reference.
// The input is a sequence of 7-byte (op, id, level) records: op's low
// three bits pick mark (0-4), level (5-6) or Reset (7), its next two bits
// pick the id class (one of the first four pages, any id below 2^32, a
// sign-extended int32 so negative ids occur, or ids around 2^32 and
// graph.MaxVertexID), then four id bytes and a signed 16-bit level.
func FuzzVisitedMarkIfNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0xff, 0, 0, 1, 0, 0, 0, 0, 1, 0, 2, 0, 5, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0x18, 0x80, 0, 0, 0, 3, 0, 0x10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 7, 0, 0, 0, 0, 0, 0, 0x1d, 0x80, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := NewMemVisited()
		ref := make(map[graph.VertexID]int32)
		for ; len(data) >= 7; data = data[7:] {
			op, r := data[0], binary.LittleEndian.Uint32(data[1:5])
			level := int32(int16(binary.LittleEndian.Uint16(data[5:7])))
			var id graph.VertexID
			switch op >> 3 & 3 {
			case 0:
				id = graph.VertexID(r & (4*visitedPageSize - 1))
			case 1:
				id = graph.VertexID(r)
			case 2:
				id = graph.VertexID(int32(r))
			case 3:
				id = 1<<32 - 128 + graph.VertexID(r&0xff)
				if r&0x100 != 0 {
					id = graph.MaxVertexID - graph.VertexID(r&0xff)
				}
			}
			want, seen := ref[id]
			switch op & 7 {
			case 5, 6:
				if !seen {
					want = -1
				}
				if got, err := v.Level(id); err != nil || got != want {
					t.Fatalf("Level(%d) = %d, %v; want %d", id, got, err, want)
				}
			case 7:
				v.Reset()
				clear(ref)
			default:
				isNew, err := v.MarkIfNew(id, level)
				if (err != nil) != (level < 0) {
					t.Fatalf("MarkIfNew(%d, %d) error = %v", id, level, err)
				}
				if err == nil && isNew == seen {
					t.Fatalf("MarkIfNew(%d, %d) = %v with the id marked %v", id, level, isNew, seen)
				}
				if isNew {
					ref[id] = level
				}
			}
			if v.Count() != int64(len(ref)) {
				t.Fatalf("Count = %d, want %d", v.Count(), len(ref))
			}
		}
		for id, want := range ref {
			if got, err := v.Level(id); err != nil || got != want {
				t.Fatalf("final Level(%d) = %d, %v; want %d", id, got, err, want)
			}
		}
	})
}
