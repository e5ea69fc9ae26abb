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
	// chunkCap is the neighbour capacity of one adjacency chunk: 1000
	// 8-byte IDs = 8000 bytes, the paper's ~8 KB blocks.
	chunkCap = 1000
	// DefaultCacheBytes is the page-cache budget when Options.CacheBytes
	// is zero.
	DefaultCacheBytes = 16 << 20

	defaultMaxFileBytes = 256 << 20

	manifestName = "btreedb.manifest"
)

// DB is the BerkeleyDB-substitute graph store.
type DB struct {
	dir    string
	fsys   vfs.FS
	store  *blockio.Store
	cache  *cache.BlockCache
	tree   *btree.Tree
	meta   *graphdb.MetaMap
	closed bool
	stats  graphdb.StatCounters

	// scratch buffers reused across operations
	headBuf  [8]byte
	chunkBuf []byte
}

// Open creates or reopens a DB under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("btreedb: need a directory")
	}
	cacheBytes := opts.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = DefaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0 // cache disabled
	}
	maxFile := opts.MaxFileBytes
	if maxFile <= 0 {
		maxFile = defaultMaxFileBytes
	}
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("btreedb: %w", err)
	}
	store, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "bt", BlockSize: pageSize,
		MaxFileBytes: maxFile, FS: opts.FS,
	})
	if err != nil {
		return nil, err
	}
	store.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	c := cache.New(cacheBytes)
	c.EnableMetrics(opts.Metrics, "bdb")
	meta, err := loadManifest(fsys, filepath.Join(opts.Dir, manifestName))
	if err != nil {
		store.Close()
		return nil, err
	}
	tree, err := btree.Open(btree.Config{Store: store, Cache: c, Space: 0}, meta)
	if err != nil {
		store.Close()
		return nil, err
	}
	d := &DB{
		dir:      opts.Dir,
		fsys:     fsys,
		store:    store,
		cache:    c,
		tree:     tree,
		meta:     graphdb.NewMetaMap(),
		chunkBuf: make([]byte, 0, chunkCap*8),
	}
	d.stats.EnableLatency(opts.Metrics, "bdb")
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

// head record accessors: value = {tailSeq uint32, tailCount uint32}.

func (d *DB) readHead(v graph.VertexID) (tailSeq, tailCount uint32, err error) {
	val, err := d.tree.Get(btree.U64Key(uint64(v), 0))
	if err == btree.ErrNotFound {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if len(val) != 8 {
		return 0, 0, fmt.Errorf("btreedb: head of %d is %d bytes", v, len(val))
	}
	return binary.LittleEndian.Uint32(val[0:4]), binary.LittleEndian.Uint32(val[4:8]), nil
}

func (d *DB) writeHead(v graph.VertexID, tailSeq, tailCount uint32) error {
	binary.LittleEndian.PutUint32(d.headBuf[0:4], tailSeq)
	binary.LittleEndian.PutUint32(d.headBuf[4:8], tailCount)
	return d.tree.Put(btree.U64Key(uint64(v), 0), d.headBuf[:])
}

// StoreEdges implements graphdb.Graph. The batch is grouped by source so
// each touched vertex pays for its head and tail chunk once per batch.
func (d *DB) StoreEdges(edges []graph.Edge) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if len(edges) == 0 {
		return nil
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveStore(start)
	for _, e := range edges {
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
	}
	return graphdb.GroupBySource(edges, func(src graph.VertexID, dsts []graph.VertexID) error {
		if err := d.appendNeighbors(src, dsts); err != nil {
			return err
		}
		d.stats.AddEdgesStored(int64(len(dsts)))
		return nil
	})
}

func (d *DB) appendNeighbors(src graph.VertexID, add []graph.VertexID) error {
	tailSeq, tailCount, err := d.readHead(src)
	if err != nil {
		return err
	}
	d.chunkBuf = d.chunkBuf[:0]
	switch {
	case tailSeq == 0:
		// No chunks yet: the first write allocates sequence 1.
		tailSeq, tailCount = 1, 0
	case tailCount >= chunkCap:
		// Tail is full: start a fresh chunk after it.
		tailSeq, tailCount = tailSeq+1, 0
	default:
		// Tail has room: load it so the append extends it.
		val, err := d.tree.Get(btree.U64Key(uint64(src), uint64(tailSeq)))
		if err != nil {
			return fmt.Errorf("btreedb: tail chunk of %d: %w", src, err)
		}
		d.chunkBuf = append(d.chunkBuf, val...)
	}

	for len(add) > 0 {
		space := chunkCap - int(tailCount)
		take := len(add)
		if take > space {
			take = space
		}
		for _, u := range add[:take] {
			var idb [8]byte
			binary.LittleEndian.PutUint64(idb[:], uint64(u))
			d.chunkBuf = append(d.chunkBuf, idb[:]...)
		}
		tailCount += uint32(take)
		if err := d.tree.Put(btree.U64Key(uint64(src), uint64(tailSeq)), d.chunkBuf); err != nil {
			return err
		}
		add = add[take:]
		if len(add) > 0 {
			tailSeq++
			tailCount = 0
			d.chunkBuf = d.chunkBuf[:0]
		}
	}
	return d.writeHead(src, tailSeq, tailCount)
}

// Metadata implements graphdb.Graph.
func (d *DB) Metadata(v graph.VertexID) (int32, error) {
	if d.closed {
		return 0, graphdb.ErrClosed
	}
	return d.meta.Get(v), nil
}

// SetMetadata implements graphdb.Graph.
func (d *DB) SetMetadata(v graph.VertexID, md int32) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	d.meta.Set(v, md)
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph: a range scan over the
// vertex's chunks.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveAdjacency(start)
	d.stats.AddAdjacencyCall()
	c := d.tree.Seek(btree.U64Key(uint64(v), 1))
	var scratch []graph.VertexID
	for c.Valid() && c.HasPrefix(uint64(v)) {
		val := c.Value()
		for i := 0; i+8 <= len(val); i += 8 {
			scratch = append(scratch, graph.VertexID(binary.LittleEndian.Uint64(val[i:i+8])))
		}
		c.Next()
	}
	if err := c.Err(); err != nil {
		return err
	}
	d.stats.AddNeighborsReturned(graphdb.FilterAppend(d.meta, scratch, out, md, op))
	return nil
}

// Flush implements graphdb.Graph: write back dirty pages and persist the
// tree header.
func (d *DB) Flush() error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	return d.saveManifest()
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.closed {
		return nil
	}
	if err := d.Flush(); err != nil {
		return err
	}
	d.closed = true
	return d.store.Close()
}

// Stats implements graphdb.Graph.
func (d *DB) Stats() graphdb.Stats { return d.stats.Snapshot() }

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

// ResetMetadata clears all metadata between queries.
func (d *DB) ResetMetadata() { d.meta.Reset() }
