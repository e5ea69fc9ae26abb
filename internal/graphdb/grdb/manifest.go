package grdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"mssg/internal/graph"
	"mssg/internal/storage/fsutil"
)

// The manifest is grDB's root pointer: the state a reopen starts from.
// It frames the payload with a magic, a generation stamp, and a
// CRC32-C, and carries the application checkpoint blob (see
// graphdb.Checkpointer) next to the allocation state so both commit in
// the same atomic rename.
//
// Layout (little-endian):
//
//	magic     [8]byte  "GRDBMAN2"
//	gen       uint64   // incremented on every save
//	edges     uint64
//	maxVertex uint64   // two's complement; ^0 when empty
//	levels    uint32
//	ckptLen   uint32
//	nextFree  [levels]uint64
//	ckpt      [ckptLen]byte
//	crc       uint32   // CRC32-C over everything before it
//
// The fields from edges through ckpt are the state (encodeState), which
// is also the payload of a durable checkpoint's WAL state record.
const manifestMagic = "GRDBMAN2"

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorruptManifest is wrapped by manifest decode failures.
var ErrCorruptManifest = errors.New("grdb: corrupt manifest")

// manifestState is the decoded manifest content.
type manifestState struct {
	gen       uint64
	edges     int64
	maxVertex graph.VertexID
	nextFree  []int64
	ckpt      []byte
}

func encodeManifest(st manifestState) []byte {
	b := append(le.AppendUint64([]byte(manifestMagic), st.gen), encodeState(st)...)
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// decodeManifest parses a manifest. levels is the opener's ladder
// length; a mismatch is an error (the ladder is part of the on-disk
// format). The function must not panic on any input — it is fuzzed
// directly.
func decodeManifest(b []byte, levels int) (manifestState, error) {
	if len(b) < 16+4 || string(b[0:8]) != manifestMagic {
		return manifestState{}, fmt.Errorf("%w: %d bytes without the %s header", ErrCorruptManifest, len(b), manifestMagic)
	}
	body, crcb := b[:len(b)-4], b[len(b)-4:]
	if got := crc32.Checksum(body, castagnoli); got != le.Uint32(crcb) {
		return manifestState{}, fmt.Errorf("%w: checksum 0x%08x, want 0x%08x", ErrCorruptManifest, got, le.Uint32(crcb))
	}
	st, err := decodeState(body[16:], levels)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	st.gen = le.Uint64(b[8:16])
	return st, nil
}

// encodeState serializes the state: edges, maxVertex, the level count,
// the blob length, nextFree, the checkpoint blob.
func encodeState(st manifestState) []byte {
	b := le.AppendUint64(le.AppendUint64(nil, uint64(st.edges)), uint64(st.maxVertex))
	b = le.AppendUint32(le.AppendUint32(b, uint32(len(st.nextFree))), uint32(len(st.ckpt)))
	for _, nf := range st.nextFree {
		b = le.AppendUint64(b, uint64(nf))
	}
	return append(b, st.ckpt...)
}

// decodeState parses encodeState's output for a ladder of levels
// levels. Must not panic on any input (fuzzed by FuzzStateRecordDecode).
func decodeState(b []byte, levels int) (manifestState, error) {
	var st manifestState
	if len(b) < 24 {
		return st, fmt.Errorf("state of %d bytes is shorter than its header", len(b))
	}
	nLevels := int(le.Uint32(b[16:20]))
	ckptLen := int(le.Uint32(b[20:24]))
	if nLevels != levels {
		return st, fmt.Errorf("state has %d levels, ladder has %d", nLevels, levels)
	}
	if len(b) != 24+8*nLevels+ckptLen {
		return st, fmt.Errorf("state is %d bytes, want %d", len(b), 24+8*nLevels+ckptLen)
	}
	st.edges = int64(le.Uint64(b[0:8]))
	st.maxVertex = graph.VertexID(le.Uint64(b[8:16]))
	st.nextFree = make([]int64, nLevels)
	for i := range st.nextFree {
		st.nextFree[i] = int64(le.Uint64(b[24+8*i:]))
	}
	if ckptLen > 0 {
		st.ckpt = append([]byte(nil), b[24+8*nLevels:]...)
	}
	return st, nil
}

func (d *DB) manifestState() manifestState {
	return manifestState{
		gen:       d.manifestGen,
		edges:     d.edges.Load(),
		maxVertex: d.maxVertex,
		nextFree:  d.nextFree,
		ckpt:      d.ckptStaged,
	}
}

func (d *DB) applyManifestState(st manifestState) {
	d.manifestGen = st.gen
	d.genMirror.Store(st.gen)
	d.edges.Store(st.edges)
	d.maxVertex = st.maxVertex
	copy(d.nextFree, st.nextFree)
	d.ckptStaged = st.ckpt
	d.ckptCommitted = st.ckpt
}

func (d *DB) loadManifest() error {
	b, err := fsutil.ReadFile(d.fsys, filepath.Join(d.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("grdb: manifest: %w", err)
	}
	st, err := decodeManifest(b, len(d.levels))
	if err != nil {
		return err
	}
	d.applyManifestState(st)
	return nil
}

// saveManifest atomically replaces the manifest (temp file + fsync +
// rename + directory fsync): a crash anywhere leaves either the old or
// the new manifest, never a torn mix.
func (d *DB) saveManifest() error {
	d.manifestGen++
	d.genMirror.Store(d.manifestGen)
	b := encodeManifest(d.manifestState())
	return fsutil.WriteFileAtomic(d.fsys, filepath.Join(d.dir, manifestName), b, 0o644)
}
