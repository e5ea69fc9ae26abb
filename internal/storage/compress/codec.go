// Package compress implements a delta-varint codec for grDB adjacency
// blocks (DESIGN.md §13). No store uses it: grDB keeps raw words in
// fixed-size blocks, where a smaller payload saves no block reads. The
// benchmark measures its unit costs, and a packed layout that stores
// fewer blocks is where it could pay.
//
// The codec treats a block as a sequence of little-endian uint64 words —
// grDB's tagged adjacency words, whose payloads are neighbor ids in
// mostly ascending order — and encodes each word as the zigzag-varint of
// its wrapping difference from the previous word. Runs of close ids
// shrink to 1–2 bytes per word; the all-zero tail of a partially filled
// block becomes one byte per word. Wrapping arithmetic makes the
// round-trip exact for any input, including non-monotonic sequences.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var le = binary.LittleEndian

// ErrMalformed is wrapped by Decode errors: the payload is truncated,
// has trailing garbage, holds an over-long varint, or the destination
// length is not a whole number of words.
var ErrMalformed = errors.New("compress: malformed payload")

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendEncoded appends the delta-zigzag-varint encoding of src to dst
// and returns the extended slice. len(src) must be a multiple of 8;
// the bytes are interpreted as little-endian uint64 words.
func AppendEncoded(dst, src []byte) []byte {
	var prev uint64
	var tmp [binary.MaxVarintLen64]byte
	for off := 0; off+8 <= len(src); off += 8 {
		w := le.Uint64(src[off:])
		n := binary.PutUvarint(tmp[:], zigzag(int64(w-prev)))
		dst = append(dst, tmp[:n]...)
		prev = w
	}
	return dst
}

// Decode fills dst (whose length must be a multiple of 8) from payload.
// It is strict: the payload must hold exactly len(dst)/8 varints with no
// bytes left over, and never reads past len(payload) — safe on
// arbitrary, attacker-controlled bytes.
func Decode(dst, payload []byte) error {
	if len(dst)%8 != 0 {
		return fmt.Errorf("%w: destination %d bytes is not a whole number of words", ErrMalformed, len(dst))
	}
	var prev uint64
	off := 0
	for i := 0; i+8 <= len(dst); i += 8 {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return fmt.Errorf("%w: word %d truncated or over-long at offset %d", ErrMalformed, i/8, off)
		}
		off += n
		prev += uint64(unzigzag(v))
		le.PutUint64(dst[i:], prev)
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(payload)-off)
	}
	return nil
}
