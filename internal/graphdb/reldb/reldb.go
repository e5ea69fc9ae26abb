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

	manifestName = "reldb.manifest"

	spaceHeap  = 0
	spaceIndex = 1
)

// DB is the MySQL-substitute graph store.
type DB struct {
	graphdb.Base
	dir       string
	fsys      vfs.FS
	heapStore *blockio.Store
	idxStore  *blockio.Store
	cache     *cache.BlockCache
	heap      *heap
	index     *btree.Tree
	log       *wal.Log
	// durable adds data-file fsyncs to every Flush so a completed Flush
	// survives a crash, not just a process exit.
	durable bool
	// statements counts parsed statements (for reports); atomic because
	// SELECTs are readers and may run concurrently.
	statements atomic.Int64
}

// Open creates or reopens a DB under opts.Dir.
func Open(opts graphdb.Options) (*DB, error) {
	opts, err := opts.OutOfCore("reldb")
	if err != nil {
		return nil, err
	}
	durable := opts.Durability >= graphdb.DurabilityFull
	heapStore, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "heap", BlockSize: heapPageSize,
		MaxFileBytes: opts.MaxFileBytes, Checksums: durable, FS: opts.FS,
	})
	if err != nil {
		return nil, err
	}
	idxStore, err := blockio.OpenStore(blockio.Config{
		Dir: opts.Dir, Prefix: "idx", BlockSize: indexPageSize,
		MaxFileBytes: opts.MaxFileBytes, Checksums: durable, FS: opts.FS,
	})
	if err != nil {
		heapStore.Close()
		return nil, err
	}
	heapStore.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	idxStore.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
	c := cache.New(opts.CacheBytes)
	c.EnableMetrics(opts.Metrics, "mysql")
	if durable {
		// Dirty pages must not reach their data files before the WAL
		// holding their images is synced (DESIGN.md §11): without this, an
		// eviction under memory pressure writes half a B-tree split in
		// place over committed pages, and the redo-only log has no undo to
		// repair it after a power cut.
		c.SetNoSteal(true)
	}
	man, err := loadManifest(opts.FS, filepath.Join(opts.Dir, manifestName))
	if err != nil {
		heapStore.Close()
		idxStore.Close()
		return nil, err
	}
	log, err := wal.Open(opts.FS, filepath.Join(opts.Dir, "wal.log"))
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
		fsys:      opts.FS,
		heapStore: heapStore,
		idxStore:  idxStore,
		cache:     c,
		heap:      hp,
		index:     idx,
		log:       log,
		durable:   durable,
	}
	d.EnableLatency(opts.Metrics, "mysql")
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

// getChunk and putChunk are the key-value store graphdb.StoreChunked
// appends through. Chunk seq of v is the index entry (v, seq): the head
// record itself at seq 0, a reference to the heap row holding the BLOB
// above it.
func (d *DB) getChunk(v graph.VertexID, seq uint32) ([]byte, error) {
	val, err := d.index.Get(btree.U64Key(uint64(v), uint64(seq)))
	if err == btree.ErrNotFound {
		return nil, nil
	}
	if err != nil || seq == 0 {
		return val, err
	}
	ref, err := decodeRowRef(val)
	if err != nil {
		return nil, err
	}
	r, err := d.heap.read(ref)
	return r.blob, err
}

// putChunk writes a BLOB through the full statement → WAL → heap →
// index path. A head record is logged too, so replay restores it; if
// that record is lost, replay's self-heal rebuilds the head from the
// highest row chunk it sees.
func (d *DB) putChunk(v graph.VertexID, seq uint32, val []byte) error {
	if seq == 0 {
		if _, err := d.log.Append(encodeWALRecord(int64(v), 0, val)); err != nil {
			return err
		}
		return d.index.Put(btree.U64Key(uint64(v), 0), val)
	}
	// Client renders the statement; server parses and executes it.
	st, err := parseStatement(renderInsert(int64(v), seq, val))
	if err != nil {
		return err
	}
	d.statements.Add(1)
	return d.execInsert(st)
}

func (d *DB) readHead(v graph.VertexID) (tailChunk, tailCount uint32, err error) {
	return graphdb.ReadChunkHead(v, d.getChunk)
}

// StoreEdges implements graphdb.Graph. Each touched vertex's tail chunk is
// rewritten through putChunk.
func (d *DB) StoreEdges(edges []graph.Edge) error {
	return d.StoreBatch(edges, func(edges []graph.Edge) error {
		return graphdb.StoreChunked(edges, d.getChunk, d.putChunk)
	})
}

// AdjacencyUsingMetadata implements graphdb.Graph: a SELECT through the
// statement layer, an index range scan, heap fetches, and a text result
// set decoded client-side.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}

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
		scratch = graphdb.DecodeChunk(scratch, blob)
	}
	d.EndAdjacency(start, d.Filter(scratch, out, md, op))
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
	if d.Closed() {
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
	if d.Closed() {
		return nil
	}
	if err := d.Flush(); err != nil {
		return err
	}
	d.Base.Close()
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
