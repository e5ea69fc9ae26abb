// Package grdb implements grDB, the paper's novel out-of-core graph
// database for massive scale-free graphs (§3.4.1, §4.1.6).
//
// A grDB instance has two components: the storage component — multiple
// levels of block files, where a level-ℓ sub-block stores up to d_ℓ
// neighbour IDs — and the block cache component (package storage/cache).
// The level fan-outs grow roughly like the power-law degree distribution
// of the target graphs (the prototype ladder is d = 2, 4, 16, 256, 4K,
// 16K), so low-degree vertices — the vast majority — live entirely in one
// level-0 sub-block, while hub adjacency spills across a short chain of
// exponentially larger sub-blocks.
//
// Vertex v's adjacency list begins in the v-th sub-block of level 0. If v
// has more than d_0 neighbours, the last slot of the level-0 sub-block
// holds a tagged pointer to a sub-block at level 1, and so on up the
// levels; at the top level, chains continue within the level. Storage
// words are 64-bit with the 3 most significant bits reserved as the
// pointer tag (§4.1.6), leaving 61-bit vertex IDs:
//
//	0x0000000000000000              empty slot
//	tag 000, value w > 0            neighbour with ID w-1
//	tag 001, value s                continuation pointer to sub-block s
//
// Because slots fill strictly left to right and no legal word is zero,
// the fill point of a sub-block is found by binary search, and freshly
// allocated (all-zero) disk blocks need no initialization.
//
// Sub-block s of level ℓ lives at block s/k_ℓ, file (s/k_ℓ)/N_ℓ, byte
// offset B_ℓ·((s/k_ℓ) mod N_ℓ) + b·d_ℓ·(s mod k_ℓ) — the modulo
// arithmetic of §3.4.1, realized by blockio's file striping plus the
// in-block offset here.
package grdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/compress"
	"mssg/internal/storage/fsutil"
	"mssg/internal/storage/vfs"
	"mssg/internal/storage/wal"
)

func init() {
	graphdb.Register("grdb", func(opts graphdb.Options) (graphdb.Graph, error) {
		return Open(opts)
	})
}

const (
	wordBytes = 8 // b: one vertex ID or pointer per word

	tagShift     = 61
	tagMask      = uint64(7) << tagShift
	valueMask    = ^tagMask
	tagNeighbor  = uint64(0) << tagShift
	tagPointer   = uint64(1) << tagShift
	wordEmpty    = uint64(0)
	maxStoreable = (uint64(1) << tagShift) - 2 // ids are stored as id+1

	manifestName = "grdb.manifest"

	// compressedMarkerName marks a database whose level stores hold
	// compressed blocks (Options.Compress). The block encoding is part of
	// the on-disk format, so Open refuses a marker/option mismatch rather
	// than misreading every block.
	compressedMarkerName = "grdb.compressed"
)

// DefaultLevels is the prototype's 6-level ladder (§4.1.6): d_ℓ of 2, 4,
// 16, 256, 4K, 16K with 4 KB blocks on the first four levels and 32 KB /
// 256 KB blocks on the last two.
func DefaultLevels() []graphdb.LevelSpec {
	return []graphdb.LevelSpec{
		{SubBlockCap: 2, BlockBytes: 4 << 10},
		{SubBlockCap: 4, BlockBytes: 4 << 10},
		{SubBlockCap: 16, BlockBytes: 4 << 10},
		{SubBlockCap: 256, BlockBytes: 4 << 10},
		{SubBlockCap: 4 << 10, BlockBytes: 32 << 10},
		{SubBlockCap: 16 << 10, BlockBytes: 256 << 10},
	}
}

// levelStore is the block store a level reads and writes logical blocks
// through: a plain *blockio.Store, or a *compress.Store wrapping one
// when Options.Compress is set. The WAL recovery path and Scrub go
// through the same interface, so both operate on logical block images
// regardless of the on-disk encoding.
type levelStore interface {
	BlockSize() int
	ReadBlock(idx int64, buf []byte) error
	ReadBlockNoVerify(idx int64, buf []byte) error
	WriteBlock(idx int64, buf []byte) error
	Sync() error
	Close() error
	Counters() blockio.Counters
}

// level is one storage level at runtime. Its block-cache space id is its
// index in DB.levels.
type level struct {
	d        int   // sub-block neighbour capacity
	subBytes int   // b * d
	k        int64 // sub-blocks per block
	store    levelStore
}

// DB is a grDB instance.
type DB struct {
	graphdb.Base
	dir    string
	levels []level
	cache  *cache.BlockCache

	// nextFree[ℓ] is the next unallocated sub-block at level ℓ (ℓ >= 1;
	// level 0 is addressed by anchor and nextFree[0] stays 0). Persisted
	// in the manifest.
	nextFree []int64

	// maxVertex is the highest source vertex stored, bounding the
	// Defragment sweep. Persisted in the manifest; -1 when empty.
	maxVertex graph.VertexID

	// edges counts the edges stored and is what Stats reports. Persisted
	// in the manifest; a failed durable mutation rewinds it. Atomic so
	// Stats may read it while a store runs.
	edges atomic.Int64

	// tailHint caches each vertex's chain tail so appends skip the walk
	// from level 0 — the "smart caching ... to reduce the number of disk
	// I/Os due to updates" of §3.2. Purely an accelerator: entries are
	// dropped on any doubt (reopen, defragmentation) and appends fall
	// back to the full chain walk.
	tailHint map[graph.VertexID]subPos

	// copyUp selects the §3.4.1 copy-on-overflow strategy; see
	// graphdb.Options.CopyUpOnOverflow. Chains stay at most two hops
	// (level 0 plus one tail) until the top level, so tail hints are
	// unnecessary and disabled in this mode.
	copyUp bool

	// fsys is the filesystem all durable I/O goes through (the crash
	// suite injects crashfs here); see graphdb.Options.FS.
	fsys vfs.FS

	// durable enables the crash-safe checkpoint protocol of DESIGN.md
	// §11: block checksums, the write-ahead log, no-steal caching, and
	// recovery-on-open. Flush becomes an atomic checkpoint.
	durable bool

	// wal is the redo log (durable mode only); see checkpoint().
	wal *wal.Log

	// manifestGen counts manifest saves; persisted for diagnostics.
	manifestGen uint64

	// genMirror mirrors manifestGen atomically so Generation() can be
	// read by concurrent query admission while a Flush commits (mutators
	// update it last, under their external serialization).
	genMirror atomic.Uint64

	// ckptStaged is the blob from the most recent SetCheckpoint;
	// ckptCommitted is the blob from the last committed Flush (what
	// GetCheckpoint returns). See graphdb.Checkpointer.
	ckptStaged    []byte
	ckptCommitted []byte

	// compressed marks that level stores encode blocks (Options.Compress).
	compressed bool

	// pf coordinates asynchronous prefetch jobs (see prefetch.go). Close
	// drains it before releasing the stores.
	pf prefetchEngine

	// Recovery/scrub observability (nil-safe no-ops without a registry).
	mRecoveryRuns, mRecoveryRecords, mRecoveryBlocks, mScrubCorrupt *obs.Counter
}

// subPos addresses sub-block sub of level level.
type subPos struct {
	level int
	sub   int64
}

func encodeNeighbor(v graph.VertexID) uint64 { return tagNeighbor | (uint64(v) + 1) }

func decodeNeighbor(w uint64) graph.VertexID { return graph.VertexID(wordValue(w) - 1) }

// Pointer words carry their target level explicitly in the top 3 bits of
// the 61-bit value (the paper leaves the pointer encoding to the
// implementation; an explicit level keeps the format self-describing, so
// background defragmentation may relink a chain to any level). 58 bits
// remain for the sub-block index.
const (
	ptrLevelShift = 58
	ptrLevelMask  = uint64(7) << ptrLevelShift
	ptrSubMask    = (uint64(1) << ptrLevelShift) - 1
)

func encodePointer(level int, sub int64) uint64 {
	return tagPointer | (uint64(level) << ptrLevelShift) | (uint64(sub) & ptrSubMask)
}

func decodePointer(w uint64) (level int, sub int64) {
	return int((w & ptrLevelMask) >> ptrLevelShift), int64(w & ptrSubMask)
}

func wordTag(w uint64) uint64 { return w & tagMask }

func wordValue(w uint64) uint64 { return w & valueMask }

func isPointer(w uint64) bool { return wordTag(w) == tagPointer }

// validateLevels enforces the §3.4.1 constraints on a level ladder.
func validateLevels(levels []graphdb.LevelSpec, maxFileBytes int64) error {
	// Overflow allocates at level 1 and up; a one-level ladder would
	// allocate level-0 sub-blocks, which are other vertices' anchors.
	if len(levels) < 2 {
		return fmt.Errorf("grdb: need at least two levels")
	}
	for i, l := range levels {
		if l.SubBlockCap < 2 {
			return fmt.Errorf("grdb: level %d: d must be >= 2, got %d", i, l.SubBlockCap)
		}
		if i > 0 && l.SubBlockCap < 2*levels[i-1].SubBlockCap {
			return fmt.Errorf("grdb: level %d: d_l (%d) must be >= 2*d_{l-1} (%d)",
				i, l.SubBlockCap, 2*levels[i-1].SubBlockCap)
		}
		sub := l.SubBlockCap * wordBytes
		if l.BlockBytes < sub {
			return fmt.Errorf("grdb: level %d: block %d B smaller than sub-block %d B", i, l.BlockBytes, sub)
		}
		if l.BlockBytes%sub != 0 {
			return fmt.Errorf("grdb: level %d: block %d B not a multiple of sub-block %d B", i, l.BlockBytes, sub)
		}
		if maxFileBytes%int64(l.BlockBytes) != 0 {
			return fmt.Errorf("grdb: level %d: file cap %d not a multiple of block %d", i, maxFileBytes, l.BlockBytes)
		}
	}
	return nil
}

// Open creates or reopens a grDB instance under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	opts, err := opts.OutOfCore("grdb")
	if err != nil {
		return nil, err
	}
	specs := opts.Levels
	if specs == nil {
		specs = DefaultLevels()
	}
	maxFile := opts.MaxFileBytes
	if err := validateLevels(specs, maxFile); err != nil {
		return nil, err
	}

	d := &DB{
		dir:        opts.Dir,
		cache:      cache.New(opts.CacheBytes),
		tailHint:   make(map[graph.VertexID]subPos),
		copyUp:     opts.CopyUpOnOverflow,
		fsys:       opts.FS,
		durable:    opts.Durability >= graphdb.DurabilityFull,
		compressed: opts.Compress,
	}
	d.cache.EnableMetrics(opts.Metrics, "grdb")
	if err := d.checkCompressedMarker(); err != nil {
		return nil, err
	}
	d.pf.init(d, opts.Metrics)
	d.EnableLatency(opts.Metrics, "grdb")
	if reg := opts.Metrics; reg != nil {
		d.mRecoveryRuns = reg.Counter("grdb.recovery.runs")
		d.mRecoveryRecords = reg.Counter("grdb.recovery.wal_records")
		d.mRecoveryBlocks = reg.Counter("grdb.recovery.blocks_applied")
		d.mScrubCorrupt = reg.Counter("grdb.scrub.corrupt_blocks")
	}
	if d.durable {
		// Dirty blocks must not reach their data files before the WAL
		// holding their images is synced (DESIGN.md §11).
		d.cache.SetNoSteal(true)
	}
	for i, spec := range specs {
		// Compressed levels hold physical slots a fixed slack larger than
		// the logical block; the per-file block capacity stays the same.
		physBytes, storeMaxFile := spec.BlockBytes, maxFile
		if d.compressed {
			physBytes = compress.PhysicalBlockSize(spec.BlockBytes)
			storeMaxFile = maxFile / int64(spec.BlockBytes) * int64(physBytes)
		}
		inner, err := blockio.OpenStore(blockio.Config{
			Dir:          opts.Dir,
			Prefix:       fmt.Sprintf("level%d", i),
			BlockSize:    physBytes,
			MaxFileBytes: storeMaxFile,
			Checksums:    d.durable,
			FS:           opts.FS,
		})
		if err != nil {
			d.closeStores()
			return nil, err
		}
		inner.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
		inner.SimulateTransfer(opts.SimTransferLatency)
		var store levelStore = inner
		if d.compressed {
			cs, err := compress.Wrap(inner, spec.BlockBytes)
			if err != nil {
				inner.Close()
				d.closeStores()
				return nil, err
			}
			store = cs
		}
		if err := d.cache.AttachSpace(uint32(i), store); err != nil {
			store.Close()
			d.closeStores()
			return nil, err
		}
		d.levels = append(d.levels, level{
			d:        spec.SubBlockCap,
			subBytes: spec.SubBlockCap * wordBytes,
			k:        int64(spec.BlockBytes) / int64(spec.SubBlockCap*wordBytes),
			store:    store,
		})
	}
	if err := d.load(); err != nil {
		d.closeStores()
		return nil, err
	}
	if opts.VerifyOnOpen {
		if _, err := d.Check(); err != nil {
			d.closeStores()
			return nil, fmt.Errorf("grdb: verify-on-open: %w", err)
		}
	}
	return d, nil
}

// checkCompressedMarker reconciles Options.Compress with the on-disk
// marker file: an existing database must be reopened with the encoding
// it was created with.
func (d *DB) checkCompressedMarker() error {
	marker := filepath.Join(d.dir, compressedMarkerName)
	_, err := fsutil.ReadFile(d.fsys, marker)
	hasMarker := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("grdb: %w", err)
	}
	if hasMarker == d.compressed {
		return nil
	}
	_, merr := fsutil.ReadFile(d.fsys, filepath.Join(d.dir, manifestName))
	hasManifest := merr == nil
	if merr != nil && !errors.Is(merr, os.ErrNotExist) {
		return fmt.Errorf("grdb: %w", merr)
	}
	if hasMarker {
		return fmt.Errorf("grdb: %s was created with compressed blocks; reopen with Compress", d.dir)
	}
	if hasManifest {
		return fmt.Errorf("grdb: %s was created without compressed blocks; Compress cannot be enabled on reopen", d.dir)
	}
	// Fresh database opening compressed: record it.
	return fsutil.WriteFileAtomic(d.fsys, marker, []byte("1\n"), 0o644)
}

func (d *DB) closeStores() {
	for _, l := range d.levels {
		if l.store != nil {
			l.store.Close()
		}
	}
	if d.wal != nil {
		d.wal.Close()
	}
}

// subBlock pins the block containing sub-block s of level ℓ and returns
// the handle plus the sub-block's byte window inside it.
func (d *DB) subBlock(ℓ int, s int64) (*cache.Handle, []byte, error) {
	l := d.levels[ℓ]
	blockIdx := s / l.k
	h, err := d.cache.Get(uint32(ℓ), blockIdx)
	if err != nil {
		return nil, nil, err
	}
	off := int(s%l.k) * l.subBytes
	return h, h.Data()[off : off+l.subBytes], nil
}

// anchor is where v's chain starts: the v-th level-0 sub-block. It is
// the only place a vertex id addresses level 0.
func anchor(v graph.VertexID) subPos { return subPos{level: 0, sub: int64(v)} }

// link is one pinned sub-block of a chain, as decoded by DB.link. The
// caller owns it and releases h.
type link struct {
	h    *cache.Handle
	sub  []byte // the sub-block's window in the pinned block
	fill int    // used slots
	n    int    // neighbour slots: fill, less the continuation pointer
	next subPos // the continuation; level -1 where the chain ends
}

// link pins sub-block p and decodes it into l. Every writer points a
// full sub-block at a freshly allocated one — at nextLevel, at a
// compacted tail's level >= 1, or later within the top level — so a
// continuation is legal only if it moves strictly forward and lands
// below its level's nextFree. Anything else is corruption and an error;
// the rule also guarantees that every chain walk ends.
func (d *DB) link(p subPos, l *link) error {
	h, sub, err := d.subBlock(p.level, p.sub)
	if err != nil {
		return err
	}
	fill := fillPoint(sub)
	*l = link{h: h, sub: sub, fill: fill, n: fill, next: subPos{level: -1}}
	if fill < d.levels[p.level].d {
		return nil
	}
	last := getWord(sub, fill-1)
	if !isPointer(last) {
		return nil
	}
	nl, ns := decodePointer(last)
	if nl >= len(d.levels) || nl < p.level || (nl == p.level && ns <= p.sub) || ns >= d.nextFree[nl] {
		h.Release()
		return fmt.Errorf("grdb: level %d sub-block %d: corrupt pointer to level %d sub-block %d",
			p.level, p.sub, nl, ns)
	}
	l.n = fill - 1
	l.next = subPos{level: nl, sub: ns}
	return nil
}

// fillPoint returns the number of used slots in a sub-block window: the
// index of the first zero word, found by binary search (slots fill left
// to right and no legal word is zero).
func fillPoint(sub []byte) int {
	lo, hi := 0, len(sub)/wordBytes
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(sub[mid*wordBytes:]) != wordEmpty {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func getWord(sub []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(sub[i*wordBytes:])
}

func setWord(sub []byte, i int, w uint64) {
	binary.LittleEndian.PutUint64(sub[i*wordBytes:], w)
}

// allocSub allocates a fresh (all-zero on disk) sub-block at level ℓ.
func (d *DB) allocSub(ℓ int) int64 {
	s := d.nextFree[ℓ]
	d.nextFree[ℓ]++
	return s
}

// nextLevel returns the level a full level-ℓ sub-block chains into: ℓ+1,
// or ℓ itself at the top of the ladder.
func (d *DB) nextLevel(ℓ int) int {
	if ℓ+1 < len(d.levels) {
		return ℓ + 1
	}
	return ℓ
}
