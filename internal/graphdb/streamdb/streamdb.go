// Package streamdb is the StreamDB GraphDB instance (paper §4.1.5): a
// basic streaming database that appends edges to disk in binary form as
// they arrive, with no sorting or clustering. Ingestion is therefore as
// fast as sequential writes go, but the format cannot serve a single
// vertex's adjacency list without scanning the entire edge set.
//
// Search algorithms must post the whole fringe at once (AdjacencyBatch) so
// the database scans its data only once per BFS level — the active-disk
// streaming idea the paper borrows from Acharya et al. The per-vertex
// AdjacencyUsingMetadata method is implemented for interface completeness
// but performs a full scan per call, exactly the cost the paper warns
// about.
package streamdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

func init() {
	graphdb.Register("stream", func(opts graphdb.Options) (graphdb.Graph, error) {
		d, err := Open(opts.Dir)
		if err != nil {
			return nil, err
		}
		d.SimulateLatency(opts.SimReadLatency, opts.SimWriteLatency)
		d.EnableLatency(opts.Metrics, "stream")
		return d, nil
	})
}

// seqChunkBytes is the sequential-transfer unit simulated latencies are
// charged per: StreamDB never seeks, so one "device access" covers a
// large contiguous run rather than one small block.
const seqChunkBytes = 256 << 10

const recordBytes = 16 // src int64 + dst int64, little-endian

// DB is an append-only on-disk edge log.
type DB struct {
	graphdb.Base
	path  string
	f     *os.File
	wmu   sync.Mutex // serializes flushes of w between concurrent scans
	w     *bufio.Writer
	edges int64 // records in the log (including unflushed)

	scanReads atomic.Int64 // physical read ops performed by scans

	readLatency  time.Duration
	writeLatency time.Duration
	pendingWrite int64        // bytes appended since the last charged write unit
	pendingRead  atomic.Int64 // bytes scanned since the last charged read unit
}

// SimulateLatency adds a device delay per 256 KB of sequential transfer
// (reads during scans, writes during appends). See
// blockio.Store.SimulateLatency for why the harness simulates device
// latency at all.
func (d *DB) SimulateLatency(read, write time.Duration) {
	d.readLatency = read
	d.writeLatency = write
}

// Open creates (or reopens) a StreamDB instance rooted at dir.
func Open(dir string) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("streamdb: need a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("streamdb: %w", err)
	}
	path := filepath.Join(dir, "edges.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("streamdb: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("streamdb: %w", err)
	}
	if st.Size()%recordBytes != 0 {
		f.Close()
		return nil, fmt.Errorf("streamdb: log %s has torn tail (%d bytes)", path, st.Size())
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("streamdb: %w", err)
	}
	return &DB{
		path:  path,
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<20),
		edges: st.Size() / recordBytes,
	}, nil
}

// StoreEdges implements graphdb.Graph: a buffered sequential append.
func (d *DB) StoreEdges(edges []graph.Edge) error { return d.StoreBatch(edges, d.appendLog) }

func (d *DB) appendLog(edges []graph.Edge) error {
	var rec [recordBytes]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(e.Src))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(e.Dst))
		if _, err := d.w.Write(rec[:]); err != nil {
			return fmt.Errorf("streamdb: append: %w", err)
		}
		if d.writeLatency > 0 {
			d.pendingWrite += recordBytes
			if d.pendingWrite >= seqChunkBytes {
				d.pendingWrite -= seqChunkBytes
				time.Sleep(d.writeLatency)
			}
		}
		d.edges++
	}
	return nil
}

// Flush implements graphdb.Graph.
func (d *DB) Flush() error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	return d.w.Flush()
}

// scan streams the whole log, invoking visit for every edge record.
// Scans are readers under the graphdb concurrency contract: any number
// may run at once (each gets its own SectionReader over the immutable
// prefix), so the write-buffer flush is mutex-guarded and the latency
// accounting is atomic.
func (d *DB) scan(visit func(src, dst graph.VertexID)) error {
	d.wmu.Lock()
	err := d.w.Flush()
	d.wmu.Unlock()
	if err != nil {
		return err
	}
	r := io.NewSectionReader(d.f, 0, d.edges*recordBytes)
	br := bufio.NewReaderSize(r, 1<<20)
	var rec [recordBytes]byte
	for i := int64(0); i < d.edges; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("streamdb: scan: %w", err)
		}
		d.scanReads.Add(1)
		if d.readLatency > 0 {
			pending := d.pendingRead.Add(recordBytes)
			if pending >= seqChunkBytes && d.pendingRead.CompareAndSwap(pending, pending-seqChunkBytes) {
				time.Sleep(d.readLatency)
			}
		}
		visit(
			graph.VertexID(binary.LittleEndian.Uint64(rec[0:8])),
			graph.VertexID(binary.LittleEndian.Uint64(rec[8:16])),
		)
	}
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph with a full scan per
// call. Use AdjacencyBatch for fringe expansion.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}
	var scratch []graph.VertexID
	if err := d.scan(func(src, dst graph.VertexID) {
		if src == v {
			scratch = append(scratch, dst)
		}
	}); err != nil {
		return err
	}
	d.EndAdjacency(start, d.Filter(scratch, out, md, op))
	return nil
}

// AdjacencyBatch implements graphdb.BatchGraph: one pass over the log
// answers the entire fringe.
func (d *DB) AdjacencyBatch(fringe []graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if _, err := d.BeginAdjacency(int64(len(fringe))); err != nil || len(fringe) == 0 {
		return err
	}
	want := make(map[graph.VertexID]struct{}, len(fringe))
	for _, v := range fringe {
		want[v] = struct{}{}
	}
	var scratch []graph.VertexID
	if err := d.scan(func(src, dst graph.VertexID) {
		if _, ok := want[src]; ok {
			scratch = append(scratch, dst)
		}
	}); err != nil {
		return err
	}
	d.EndAdjacency(0, d.Filter(scratch, out, md, op)) // a batch is no one retrieval's latency
	return nil
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.Closed() {
		return nil
	}
	if err := d.w.Flush(); err != nil {
		return err
	}
	d.Base.Close()
	return d.f.Close()
}

// IOCounters implements graphdb.IOCounters: scans count as reads; every
// stored edge is one buffered write.
func (d *DB) IOCounters() (blockReads, blockWrites int64) {
	return d.scanReads.Load(), d.Stats().EdgesStored
}

// Edges returns the number of records in the log.
func (d *DB) Edges() int64 { return d.edges }
