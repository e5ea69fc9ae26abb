// Package btreedb is the BerkeleyDB GraphDB instance of the paper
// (§4.1.4), rebuilt from scratch: a persistent B-tree key-value store
// (package storage/btree) with an internal page cache, storing each
// vertex's adjacency list as a sequence of fixed-capacity binary chunks —
// the same 8 KB blocking scheme the paper uses for both its MySQL and
// BerkeleyDB instances (Fig 4.3).
//
// Keys are (vertex id, chunk sequence); sequence 0 is a small head record
// tracking the tail chunk and its fill, so appends touch only the head,
// the tail chunk, and the B-tree path to them.
package btreedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/btree"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/fsutil"
	"mssg/internal/storage/vfs"
)

func init() {
	graphdb.Register("bdb", func(opts graphdb.Options) (graphdb.Graph, error) {
		return Open(opts)
	})
}

const (
	pageSize = 16 * 1024

	manifestName = "btreedb.manifest"
)

// DB is the BerkeleyDB-substitute graph store.
type DB struct {
	graphdb.Base
	dir   string
	fsys  vfs.FS
	store *blockio.Store
	cache *cache.BlockCache
	tree  *btree.Tree
}

// Open creates or reopens a DB under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	opts, err := opts.OutOfCore("btreedb")
	if err != nil {
		return nil, err
	}
	store, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "bt", BlockSize: pageSize,
		MaxFileBytes: opts.MaxFileBytes, FS: opts.FS,
	})
	if err != nil {
		return nil, err
	}
	store.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	c := cache.New(opts.CacheBytes)
	c.EnableMetrics(opts.Metrics, "bdb")
	meta, err := loadManifest(opts.FS, filepath.Join(opts.Dir, manifestName))
	if err != nil {
		store.Close()
		return nil, err
	}
	tree, err := btree.Open(btree.Config{Store: store, Cache: c, Space: 0}, meta)
	if err != nil {
		store.Close()
		return nil, err
	}
	d := &DB{dir: opts.Dir, fsys: opts.FS, store: store, cache: c, tree: tree}
	d.EnableLatency(opts.Metrics, "bdb")
	return d, nil
}

func loadManifest(fsys vfs.FS, path string) (btree.Meta, error) {
	b, err := fsutil.ReadFile(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		return btree.Meta{}, nil
	}
	if err != nil {
		return btree.Meta{}, fmt.Errorf("btreedb: manifest: %w", err)
	}
	if len(b) != 24 {
		return btree.Meta{}, fmt.Errorf("btreedb: manifest is %d bytes, want 24", len(b))
	}
	return btree.Meta{
		Root:     int64(binary.LittleEndian.Uint64(b[0:8])),
		NumPages: int64(binary.LittleEndian.Uint64(b[8:16])),
		Count:    int64(binary.LittleEndian.Uint64(b[16:24])),
	}, nil
}

func (d *DB) saveManifest() error {
	m := d.tree.Meta()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.Root))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.NumPages))
	binary.LittleEndian.PutUint64(b[16:24], uint64(m.Count))
	return fsutil.WriteFileAtomic(d.fsys, filepath.Join(d.dir, manifestName), b[:], 0o644)
}

// getChunk and putChunk are the key-value store graphdb.StoreChunked
// appends through: chunk seq of v lives at key (v, seq).
func (d *DB) getChunk(v graph.VertexID, seq uint32) ([]byte, error) {
	val, err := d.tree.Get(btree.U64Key(uint64(v), uint64(seq)))
	if err == btree.ErrNotFound {
		return nil, nil
	}
	return val, err
}

func (d *DB) putChunk(v graph.VertexID, seq uint32, val []byte) error {
	return d.tree.Put(btree.U64Key(uint64(v), uint64(seq)), val)
}

func (d *DB) readHead(v graph.VertexID) (tailSeq, tailCount uint32, err error) {
	return graphdb.ReadChunkHead(v, d.getChunk)
}

// StoreEdges implements graphdb.Graph.
func (d *DB) StoreEdges(edges []graph.Edge) error {
	return d.StoreBatch(edges, func(edges []graph.Edge) error {
		return graphdb.StoreChunked(edges, d.getChunk, d.putChunk)
	})
}

// AdjacencyUsingMetadata implements graphdb.Graph: a range scan over the
// vertex's chunks.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}
	c := d.tree.Seek(btree.U64Key(uint64(v), 1))
	var scratch []graph.VertexID
	for c.Valid() && c.HasPrefix(uint64(v)) {
		scratch = graphdb.DecodeChunk(scratch, c.Value())
		c.Next()
	}
	if err := c.Err(); err != nil {
		return err
	}
	d.EndAdjacency(start, d.Filter(scratch, out, md, op))
	return nil
}

// Flush implements graphdb.Graph: write back dirty pages and persist the
// tree header.
func (d *DB) Flush() error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	return d.saveManifest()
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.Closed() {
		return nil
	}
	if err := d.Flush(); err != nil {
		return err
	}
	d.Base.Close()
	return d.store.Close()
}

// IOCounters implements graphdb.IOCounters.
func (d *DB) IOCounters() (blockReads, blockWrites int64) {
	c := d.store.Counters()
	return c.BlockReads, c.BlockWrites
}

// CacheStats implements graphdb.CacheStats.
func (d *DB) CacheStats() (hits, misses int64) {
	s := d.cache.Stats()
	return s.Hits, s.Misses
}
