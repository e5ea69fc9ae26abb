package reldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/btree"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/fsutil"
	"mssg/internal/storage/vfs"
	"mssg/internal/storage/wal"
)

func init() {
	graphdb.Register("mysql", func(opts graphdb.Options) (graphdb.Graph, error) {
		return Open(opts)
	})
}

const (
	indexPageSize = 4 * 1024
	// chunkCap is the neighbour capacity of one BLOB chunk: 1000 8-byte
	// IDs = 8000 bytes, the paper's ~8 KB blocking (Fig 4.3).
	chunkCap = 1000
	// DefaultCacheBytes is the buffer-pool budget when Options.CacheBytes
	// is zero.
	DefaultCacheBytes = 16 << 20

	defaultMaxFileBytes = 256 << 20

	manifestName = "reldb.manifest"

	spaceHeap  = 0
	spaceIndex = 1
)

// DB is the MySQL-substitute graph store.
type DB struct {
	dir       string
	fsys      vfs.FS
	heapStore *blockio.Store
	idxStore  *blockio.Store
	cache     *cache.BlockCache
	heap      *heap
	index     *btree.Tree
	log       *wal.Log
	meta      *graphdb.MetaMap
	// durable adds data-file fsyncs to every Flush so a completed Flush
	// survives a crash, not just a process exit.
	durable bool
	closed  bool
	stats   graphdb.StatCounters
	// statements counts parsed statements (for reports); atomic because
	// SELECTs are readers and may run concurrently.
	statements atomic.Int64
}

// Open creates or reopens a DB under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("reldb: need a directory")
	}
	cacheBytes := opts.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = DefaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0
	}
	maxFile := opts.MaxFileBytes
	if maxFile <= 0 {
		maxFile = defaultMaxFileBytes
	}
	fsys := vfs.Or(opts.FS)
	durable := opts.Durability >= graphdb.DurabilityFull
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: %w", err)
	}
	heapStore, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "heap", BlockSize: heapPageSize,
		MaxFileBytes: maxFile, Checksums: durable, FS: opts.FS,
	})
	if err != nil {
		return nil, err
	}
	idxStore, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "idx", BlockSize: indexPageSize,
		MaxFileBytes: maxFile, Checksums: durable, FS: opts.FS,
	})
	if err != nil {
		heapStore.Close()
		return nil, err
	}
	heapStore.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	idxStore.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	c := cache.New(cacheBytes)
	c.EnableMetrics(opts.Metrics, "mysql")
	if durable {
		// Dirty pages must not reach their data files before the WAL
		// holding their images is synced (DESIGN.md §11): without this, an
		// eviction under memory pressure writes half a B-tree split in
		// place over committed pages, and the redo-only log has no undo to
		// repair it after a power cut.
		c.SetNoSteal(true)
	}
	man, err := loadManifest(fsys, filepath.Join(opts.Dir, manifestName))
	if err != nil {
		heapStore.Close()
		idxStore.Close()
		return nil, err
	}
	log, err := wal.Open(fsys, filepath.Join(opts.Dir, "wal.log"))
	if err != nil {
		heapStore.Close()
		idxStore.Close()
		return nil, err
	}
	// A committed flush may have been interrupted mid-write-back: restore
	// its block images (and the manifest state it sealed) before the heap
	// and tree first read through those pages.
	man, lastState, err := recoverCheckpoint(log,
		map[uint32]cache.Store{spaceHeap: heapStore, spaceIndex: idxStore}, man)
	if err != nil {
		log.Close()
		heapStore.Close()
		idxStore.Close()
		return nil, fmt.Errorf("reldb: checkpoint recovery: %w", err)
	}
	hp, err := openHeap(heapStore, c, spaceHeap, man.heapTail, man.heapPages)
	if err != nil {
		log.Close()
		heapStore.Close()
		idxStore.Close()
		return nil, err
	}
	idx, err := btree.Open(btree.Config{Store: idxStore, Cache: c, Space: spaceIndex}, man.tree)
	if err != nil {
		log.Close()
		heapStore.Close()
		idxStore.Close()
		return nil, err
	}
	d := &DB{
		dir:       opts.Dir,
		fsys:      fsys,
		heapStore: heapStore,
		idxStore:  idxStore,
		cache:     c,
		heap:      hp,
		index:     idx,
		log:       log,
		meta:      graphdb.NewMetaMap(),
		durable:   durable,
	}
	d.stats.EnableLatency(opts.Metrics, "mysql")
	// Redo the row records the last crash left in the log (those not
	// already covered by the recovered checkpoint), then complete the
	// interrupted flush so the next crash starts from a clean slate.
	replayed, err := d.replayWAL(lastState)
	if err != nil {
		d.closeStores()
		return nil, fmt.Errorf("reldb: WAL replay: %w", err)
	}
	if replayed > 0 || lastState > 0 {
		if err := d.Flush(); err != nil {
			d.closeStores()
			return nil, fmt.Errorf("reldb: post-replay flush: %w", err)
		}
	}
	return d, nil
}

type manifest struct {
	tree      btree.Meta
	heapTail  int64
	heapPages int64
}

// manifestBytes is the fixed encoded size of a manifest (also the
// payload of a WAL state record).
const manifestBytes = 40

// encode serializes m into manifestBytes bytes.
func (m manifest) encode() []byte {
	b := make([]byte, manifestBytes)
	binary.LittleEndian.PutUint64(b[0:8], uint64(m.tree.Root))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.tree.NumPages))
	binary.LittleEndian.PutUint64(b[16:24], uint64(m.tree.Count))
	binary.LittleEndian.PutUint64(b[24:32], uint64(m.heapTail))
	binary.LittleEndian.PutUint64(b[32:40], uint64(m.heapPages))
	return b
}

// decodeManifest parses manifestBytes of encoded manifest. Must not
// panic on any input (fuzzed via FuzzManifestDecode).
func decodeManifest(b []byte) (manifest, error) {
	if len(b) != manifestBytes {
		return manifest{}, fmt.Errorf("reldb: manifest is %d bytes, want %d", len(b), manifestBytes)
	}
	return manifest{
		tree: btree.Meta{
			Root:     int64(binary.LittleEndian.Uint64(b[0:8])),
			NumPages: int64(binary.LittleEndian.Uint64(b[8:16])),
			Count:    int64(binary.LittleEndian.Uint64(b[16:24])),
		},
		heapTail:  int64(binary.LittleEndian.Uint64(b[24:32])),
		heapPages: int64(binary.LittleEndian.Uint64(b[32:40])),
	}, nil
}

func loadManifest(fsys vfs.FS, path string) (manifest, error) {
	b, err := fsutil.ReadFile(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("reldb: manifest: %w", err)
	}
	return decodeManifest(b)
}

// currentManifest snapshots the live tree meta and heap allocation state.
func (d *DB) currentManifest() manifest {
	return manifest{tree: d.index.Meta(), heapTail: d.heap.tail, heapPages: d.heap.numPages}
}

func (d *DB) saveManifest() error {
	return fsutil.WriteFileAtomic(d.fsys, filepath.Join(d.dir, manifestName), d.currentManifest().encode(), 0o644)
}

// head record: index key (v, 0) → {tailChunk uint32, tailCount uint32}.

func (d *DB) readHead(v graph.VertexID) (tailChunk, tailCount uint32, err error) {
	val, err := d.index.Get(btree.U64Key(uint64(v), 0))
	if err == btree.ErrNotFound {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if len(val) != 8 {
		return 0, 0, fmt.Errorf("reldb: head of %d is %d bytes", v, len(val))
	}
	return binary.LittleEndian.Uint32(val[0:4]), binary.LittleEndian.Uint32(val[4:8]), nil
}

func (d *DB) writeHead(v graph.VertexID, tailChunk, tailCount uint32) error {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], tailChunk)
	binary.LittleEndian.PutUint32(b[4:8], tailCount)
	return d.index.Put(btree.U64Key(uint64(v), 0), b[:])
}

// execInsert runs one parsed REPLACE against storage: WAL first, then a
// new heap row version, then the index repoint. Records are staged in the
// log and group-committed by the next Flush — one fsync per flush window
// rather than the per-statement flush that makes transactional engines
// slow ingesters.
func (d *DB) execInsert(st statement) error {
	if _, err := d.log.Append(encodeWALRecord(st.vertex, st.chunk, st.blob)); err != nil {
		return err
	}
	ref, err := d.heap.insert(row{vertex: st.vertex, chunk: st.chunk, blob: st.blob})
	if err != nil {
		return err
	}
	return d.index.Put(btree.U64Key(uint64(st.vertex), uint64(st.chunk)), ref.encode())
}

// StoreEdges implements graphdb.Graph. Each touched vertex's tail chunk is
// rewritten through the full statement → WAL → heap → index path.
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
	tailChunk, tailCount, err := d.readHead(src)
	if err != nil {
		return err
	}
	var blob []byte
	switch {
	case tailChunk == 0:
		tailChunk, tailCount = 1, 0
	case tailCount >= chunkCap:
		tailChunk, tailCount = tailChunk+1, 0
	default:
		// Read the current tail row back through the index.
		refBytes, err := d.index.Get(btree.U64Key(uint64(src), uint64(tailChunk)))
		if err != nil {
			return fmt.Errorf("reldb: tail of %d: %w", src, err)
		}
		ref, err := decodeRowRef(refBytes)
		if err != nil {
			return err
		}
		r, err := d.heap.read(ref)
		if err != nil {
			return err
		}
		blob = r.blob
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
			blob = append(blob, idb[:]...)
		}
		tailCount += uint32(take)

		// Client renders the statement; server parses and executes it.
		stmtText := renderInsert(int64(src), tailChunk, blob)
		st, err := parseStatement(stmtText)
		if err != nil {
			return err
		}
		d.statements.Add(1)
		if err := d.execInsert(st); err != nil {
			return err
		}

		add = add[take:]
		if len(add) > 0 {
			tailChunk++
			tailCount = 0
			blob = blob[:0]
		}
	}
	// Log the head update too (chunk 0 = head record), so replay restores
	// it; if this record is lost, replay's self-heal rebuilds the head
	// from the highest row chunk it sees.
	var hb [8]byte
	binary.LittleEndian.PutUint32(hb[0:4], tailChunk)
	binary.LittleEndian.PutUint32(hb[4:8], tailCount)
	if _, err := d.log.Append(encodeWALRecord(int64(src), 0, hb[:])); err != nil {
		return err
	}
	return d.writeHead(src, tailChunk, tailCount)
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

// AdjacencyUsingMetadata implements graphdb.Graph: a SELECT through the
// statement layer, an index range scan, heap fetches, and a text result
// set decoded client-side.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveAdjacency(start)
	d.stats.AddAdjacencyCall()

	st, err := parseStatement(renderSelect(int64(v)))
	if err != nil {
		return err
	}
	d.statements.Add(1)

	// Server side: index range scan over (v, 1..), heap fetch per chunk,
	// text result rows out.
	var resultRows []string
	c := d.index.Seek(btree.U64Key(uint64(st.vertex), 1))
	for c.Valid() && c.HasPrefix(uint64(st.vertex)) {
		ref, err := decodeRowRef(c.Value())
		if err != nil {
			return err
		}
		r, err := d.heap.read(ref)
		if err != nil {
			return err
		}
		resultRows = append(resultRows, renderResultRow(r.chunk, r.blob))
		c.Next()
	}
	if err := c.Err(); err != nil {
		return err
	}

	// Client side: decode the result set.
	var scratch []graph.VertexID
	for _, rowText := range resultRows {
		_, blob, err := parseResultRow(rowText)
		if err != nil {
			return err
		}
		for i := 0; i+8 <= len(blob); i += 8 {
			scratch = append(scratch, graph.VertexID(binary.LittleEndian.Uint64(blob[i:i+8])))
		}
	}
	d.stats.AddNeighborsReturned(graphdb.FilterAppend(d.meta, scratch, out, md, op))
	return nil
}

// Flush implements graphdb.Graph. The log sync is the commit point: once
// it returns, the flushed statements survive a crash (replay redoes
// them); the write-back, data syncs, and manifest that follow retire the
// log so the next recovery starts empty.
//
// In durable mode Flush is the redo checkpoint of DESIGN.md §11: the
// commit also logs the image of every dirty page and a state record
// sealing the tree meta and heap tail, because replaying rows against a
// tree whose write-back a power cut interrupted can descend through a
// half-applied split into garbage; recovery restores the images instead.
func (d *DB) Flush() error {
	if d.closed {
		return graphdb.ErrClosed
	}
	commit := d.log.Sync
	if d.durable {
		commit = func() error { return d.log.Commit(d.cache, d.currentManifest().encode()) }
	}
	if err := commit(); err != nil { // commit point
		return err
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	if d.durable {
		if err := d.heapStore.Sync(); err != nil {
			return err
		}
		if err := d.idxStore.Sync(); err != nil {
			return err
		}
	}
	if err := d.saveManifest(); err != nil {
		return err
	}
	return d.log.Reset()
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
	return d.closeStores()
}

// closeStores releases file handles without flushing; first error wins.
func (d *DB) closeStores() error {
	err := d.log.Close()
	if e := d.heapStore.Close(); err == nil {
		err = e
	}
	if e := d.idxStore.Close(); err == nil {
		err = e
	}
	return err
}

// Stats implements graphdb.Graph.
func (d *DB) Stats() graphdb.Stats { return d.stats.Snapshot() }

// Statements returns the number of SQL statements parsed.
func (d *DB) Statements() int64 { return d.statements.Load() }

// IOCounters implements graphdb.IOCounters (heap + index traffic).
func (d *DB) IOCounters() (blockReads, blockWrites int64) {
	h := d.heapStore.Counters()
	i := d.idxStore.Counters()
	return h.BlockReads + i.BlockReads, h.BlockWrites + i.BlockWrites
}

// CacheStats implements graphdb.CacheStats.
func (d *DB) CacheStats() (hits, misses int64) {
	s := d.cache.Stats()
	return s.Hits, s.Misses
}

// ResetMetadata clears all metadata between queries.
func (d *DB) ResetMetadata() { d.meta.Reset() }
