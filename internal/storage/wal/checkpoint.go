package wal

import (
	"encoding/binary"
	"fmt"

	"mssg/internal/storage/cache"
)

// The redo checkpoint of DESIGN.md §11, run by every durable backend
// that keeps blocks behind a no-steal cache. Its records are payloads
// whose first byte is their kind:
//
//	'I'  block image:  space uint32 | block uint64 | data [blockSize]
//	'S'  state:        the backend's own payload (its manifest, unframed)
//
// A backend may log records of other kinds; Recover skips them.
const (
	KindImage = 'I'
	KindState = 'S'
)

const imageHeader = 1 + 4 + 8

// EncodeImage returns the image record of block `block` of space `space`.
func EncodeImage(space uint32, block int64, data []byte) []byte {
	b := make([]byte, imageHeader+len(data))
	b[0] = KindImage
	binary.LittleEndian.PutUint32(b[1:5], space)
	binary.LittleEndian.PutUint64(b[5:13], uint64(block))
	copy(b[imageHeader:], data)
	return b
}

// decodeImage splits an image record; data aliases p.
func decodeImage(p []byte) (space uint32, block int64, data []byte, err error) {
	if len(p) < imageHeader || p[0] != KindImage {
		return 0, 0, nil, fmt.Errorf("wal: malformed image record (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint32(p[1:5]),
		int64(binary.LittleEndian.Uint64(p[5:13])),
		p[imageHeader:], nil
}

// EncodeState returns the state record carrying a backend's payload.
func EncodeState(payload []byte) []byte {
	return append([]byte{KindState}, payload...)
}

// Commit runs a checkpoint's steps 1–3: it appends an image record for
// every dirty block of c, then the state record carrying state, and
// syncs the log. Once it returns nil the checkpoint survives a crash;
// the caller then writes the blocks back, syncs, saves its manifest and
// resets the log.
func (l *Log) Commit(c *cache.BlockCache, state []byte) error {
	err := c.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := l.Append(EncodeImage(space, block, data))
		return err
	})
	if err != nil {
		return err
	}
	if _, err := l.Append(EncodeState(state)); err != nil {
		return err
	}
	return l.Sync()
}

// Recover finds the last committed checkpoint in the log, writes each
// of its block images to stores[space], and returns its state payload
// and sequence number. With no state record in the log it writes
// nothing and returns (nil, 0, nil). Images for a space missing from
// stores, for a negative block, or of the wrong size are errors.
func (l *Log) Recover(stores map[uint32]cache.Store) (state []byte, seq uint64, err error) {
	err = l.Replay(func(r Record) error {
		if len(r.Payload) > 0 && r.Payload[0] == KindState {
			seq = r.Seq
		}
		return nil
	})
	if err != nil || seq == 0 {
		return nil, 0, err
	}
	err = l.Replay(func(r Record) error {
		if r.Seq > seq || len(r.Payload) == 0 {
			return nil
		}
		switch r.Payload[0] {
		case KindImage:
			return applyImage(stores, r.Payload)
		case KindState:
			if r.Seq == seq {
				state = append([]byte(nil), r.Payload[1:]...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return state, seq, nil
}

// applyImage writes image record p to its block. Must not panic on any
// input (fuzzed by FuzzCheckpointRecordDecode).
func applyImage(stores map[uint32]cache.Store, p []byte) error {
	space, block, data, err := decodeImage(p)
	if err != nil {
		return err
	}
	store, ok := stores[space]
	if !ok {
		return fmt.Errorf("wal: image for unknown space %d", space)
	}
	if block < 0 {
		return fmt.Errorf("wal: image for negative block %d", block)
	}
	if len(data) != store.BlockSize() {
		return fmt.Errorf("wal: image for space %d is %d bytes, want %d", space, len(data), store.BlockSize())
	}
	return store.WriteBlock(block, data)
}
