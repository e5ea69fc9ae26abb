package reldb

import (
	"encoding/binary"
	"fmt"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/storage/btree"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/wal"
)

// reldb's write-ahead log (storage/wal) holds the checkpoint records
// every durable Flush commits — block images and one state record
// carrying the 40 manifest bytes — and, between flushes, logical rows:
//
//	'R'  logical row:   vertex uint64 | chunk uint32 | blob
//
// Rows are appended per statement and group-committed by the next log
// Sync. They replay only against data files that hold exactly the last
// committed flush, which no-steal guarantees between flushes but not
// during a write-back, when pages land one at a time; so recovery first
// restores the last committed flush's images (recoverCheckpoint), then
// replays the rows logged after it.
//
// A row's chunk 0 is not a row: it carries the vertex's head record
// ({tailChunk uint32, tailCount uint32} as the blob), logged after the
// row inserts it summarizes so replay restores heads in order.

const recRow = 'R'

const walRowHeader = 1 + 8 + 4

func encodeWALRecord(vertex int64, chunk uint32, blob []byte) []byte {
	b := make([]byte, walRowHeader+len(blob))
	b[0] = recRow
	binary.LittleEndian.PutUint64(b[1:9], uint64(vertex))
	binary.LittleEndian.PutUint32(b[9:13], chunk)
	copy(b[walRowHeader:], blob)
	return b
}

// decodeWALRecord splits a row payload; blob aliases p. Must not panic
// on any input (fuzzed via FuzzWALRecordDecode).
func decodeWALRecord(p []byte) (vertex int64, chunk uint32, blob []byte, err error) {
	if len(p) < walRowHeader || p[0] != recRow {
		return 0, 0, nil, fmt.Errorf("reldb: malformed WAL row record (%d bytes)", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p[1:9])),
		binary.LittleEndian.Uint32(p[9:13]),
		p[walRowHeader:], nil
}

// recoverCheckpoint applies the last committed flush in the log to the
// heap and index stores and returns the manifest it sealed (man when
// there is none) and its sequence number. Called before the heap and
// index are opened, so the restored blocks are what the tree reads.
func recoverCheckpoint(log *wal.Log, stores map[uint32]cache.Store, man manifest) (manifest, uint64, error) {
	state, seq, err := log.Recover(stores)
	if err != nil || seq == 0 {
		return man, 0, err
	}
	man, err = decodeManifest(state)
	return man, seq, err
}

// replayWAL re-executes every durable row record after afterSeq against
// the heap and index: row records re-insert (a fresh heap row version;
// the index repoint makes the replay idempotent — re-replaying can waste
// heap space but never duplicates an edge in query results), head
// records rewrite the head. Because a crash can lose the head update
// that followed an insert, replay also tracks each vertex's highest
// replayed chunk and self-heals heads that lag it. Image and state
// records in that range belong to an uncommitted flush and are skipped
// (recoverCheckpoint already consumed the committed ones). Returns the
// number of records applied.
func (d *DB) replayWAL(afterSeq uint64) (int, error) {
	type tailSeen struct {
		chunk uint32
		count uint32
	}
	fixes := make(map[int64]tailSeen)
	n := 0
	err := d.log.Replay(func(r wal.Record) error {
		if r.Seq <= afterSeq {
			return nil
		}
		if len(r.Payload) > 0 && (r.Payload[0] == wal.KindImage || r.Payload[0] == wal.KindState) {
			return nil
		}
		vertex, chunk, blob, err := decodeWALRecord(r.Payload)
		if err != nil {
			return err
		}
		n++
		if chunk == 0 {
			if len(blob) != 8 {
				return fmt.Errorf("reldb: WAL head record for %d is %d bytes, want 8", vertex, len(blob))
			}
			return d.index.Put(btree.U64Key(uint64(vertex), 0), blob)
		}
		ref, err := d.heap.insert(row{vertex: vertex, chunk: chunk, blob: blob})
		if err != nil {
			return err
		}
		if err := d.index.Put(btree.U64Key(uint64(vertex), uint64(chunk)), ref.encode()); err != nil {
			return err
		}
		if f := fixes[vertex]; chunk >= f.chunk {
			fixes[vertex] = tailSeen{chunk: chunk, count: uint32(len(blob) / 8)}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	for vertex, f := range fixes {
		tailChunk, tailCount, err := d.readHead(graph.VertexID(vertex))
		if err != nil {
			return n, err
		}
		if tailChunk < f.chunk || (tailChunk == f.chunk && tailCount != f.count) {
			head := graphdb.AppendChunkHead(nil, f.chunk, f.count)
			if err := d.index.Put(btree.U64Key(uint64(vertex), 0), head); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
