// Package graphdb defines the GraphDB Service interface (paper §3.4,
// Listing 3.1): the smallest complete set of local graph-storage
// operations — store edges, get/set per-vertex metadata, and retrieve
// metadata-filtered adjacency lists — plus a registry of the six concrete
// implementations from §4.1 (Array, HashMap, MySQL-substitute,
// BerkeleyDB-substitute, StreamDB, grDB).
//
// None of these methods communicate: every implementation operates only on
// data local to its back-end node, exactly as the paper specifies. The
// Query Service (package query) handles all distribution concerns.
//
// # Concurrency contract
//
// Every Graph divides its API into two classes:
//
//   - Readers — Metadata, AdjacencyUsingMetadata, Stats, and the
//     read-only optional extensions (AdjacencyBatch, PrefetchAdjacency,
//     Degree, IOCounters, CacheStats). Readers are concurrency-safe on
//     every backend: any number of goroutines may run them
//     simultaneously on the same instance.
//   - Mutators — StoreEdges, SetMetadata, Flush, Close, and any
//     maintenance extension (ResetMetadata, Defragment). Mutators
//     always require external serialization: no mutator may overlap
//     another mutator or any reader, even on a backend whose readers
//     are concurrency-safe.
//
// MSSG itself obeys this split naturally: ingestion (mutators) and the
// query service's parallel fringe expansion (readers, see
// query.BFSConfig.Workers) run in disjoint phases on each back-end
// node, separated by a Flush.
package graphdb

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mssg/internal/graph"
)

// MetaOp selects how AdjacencyUsingMetadata filters neighbours by their
// metadata, using the operation encoding from Listing 3.1.
type MetaOp int32

const (
	// MetaIgnore returns all neighbours regardless of metadata (-2).
	MetaIgnore MetaOp = -2
	// MetaNotEqual returns neighbours whose metadata != the input (-1).
	MetaNotEqual MetaOp = -1
	// MetaEqual returns neighbours whose metadata == the input (0).
	MetaEqual MetaOp = 0
	// MetaGreater returns neighbours whose metadata > the input (1).
	MetaGreater MetaOp = 1
	// MetaLess returns neighbours whose metadata < the input (2).
	MetaLess MetaOp = 2
)

func (op MetaOp) String() string {
	switch op {
	case MetaIgnore:
		return "ignore"
	case MetaNotEqual:
		return "!="
	case MetaEqual:
		return "=="
	case MetaGreater:
		return ">"
	case MetaLess:
		return "<"
	}
	return fmt.Sprintf("MetaOp(%d)", int32(op))
}

// Matches applies the operator: does a neighbour with metadata md pass a
// filter with reference value ref?
func (op MetaOp) Matches(md, ref int32) bool {
	switch op {
	case MetaIgnore:
		return true
	case MetaNotEqual:
		return md != ref
	case MetaEqual:
		return md == ref
	case MetaGreater:
		return md > ref
	case MetaLess:
		return md < ref
	}
	return false
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("graphdb: database closed")

// Stats reports logical work done by a Graph instance.
type Stats struct {
	// EdgesStored counts edges accepted by StoreEdges.
	EdgesStored int64
	// AdjacencyCalls counts adjacency-list retrievals.
	AdjacencyCalls int64
	// NeighborsReturned counts neighbours produced by retrievals.
	NeighborsReturned int64
}

// Graph is the GraphDB Service interface (Listing 3.1). MSSG gives each
// back-end node its own instance; mutating methods must be serialized
// by the caller, while read-only methods may run concurrently (see the
// package comment for the full contract).
type Graph interface {
	// StoreEdges adds a batch of directed adjacency records.
	StoreEdges(edges []graph.Edge) error

	// Metadata returns vertex v's metadata word (0 if never set).
	Metadata(v graph.VertexID) (int32, error)

	// SetMetadata sets vertex v's metadata word.
	SetMetadata(v graph.VertexID, md int32) error

	// AdjacencyUsingMetadata appends v's distance-1 neighbours that pass
	// the (md, op) filter to out. Vertices this instance has never seen
	// yield no neighbours and no error (the paper's algorithms rely on
	// the empty set for non-local vertices, §4.2).
	AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op MetaOp) error

	// Flush makes all stored edges durable/visible for retrieval.
	Flush() error

	// Close flushes and releases resources.
	Close() error

	// Stats reports logical operation counts.
	Stats() Stats
}

// Adjacency retrieves the unfiltered adjacency list of v (MetaIgnore).
func Adjacency(g Graph, v graph.VertexID, out *graph.AdjList) error {
	return g.AdjacencyUsingMetadata(v, out, 0, MetaIgnore)
}

// DegreeReader is an optional extension for backends that can count a
// vertex's neighbours cheaper than materializing them (grDB walks its
// block chain without building the list).
type DegreeReader interface {
	Degree(v graph.VertexID) (int64, error)
}

// Degree returns v's stored out-degree, using the backend fast path when
// one is available and counting a full adjacency retrieval otherwise.
func Degree(g Graph, v graph.VertexID) (int64, error) {
	if dr, ok := g.(DegreeReader); ok {
		return dr.Degree(v)
	}
	out := graph.NewAdjList(16)
	if err := Adjacency(g, v, out); err != nil {
		return 0, err
	}
	return int64(out.Len()), nil
}

// GroupBySource calls fn once per distinct source in edges, in ascending
// source order, with that source's destinations in arrival order: the
// vertex-ordered pass a backend's StoreEdges appends a batch in. Sources
// must be valid (non-negative) ids. It sorts a copy, so edges is left as
// it was, and every dsts is a sub-slice of one buffer that is valid only
// during its call. The first error from fn stops the walk and is
// returned.
func GroupBySource(edges []graph.Edge, fn func(src graph.VertexID, dsts []graph.VertexID) error) error {
	// A least-significant-digit radix sort on the source, one byte per
	// pass and only as many passes as the largest source needs, is stable
	// and linear in the batch.
	sorted, spare := slices.Clone(edges), make([]graph.Edge, len(edges))
	var top uint64
	for _, e := range sorted {
		top = max(top, uint64(e.Src))
	}
	for shift := uint(0); shift < 64 && top>>shift > 0; shift += 8 {
		var start [257]int
		for _, e := range sorted {
			start[uint64(e.Src)>>shift&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, e := range sorted {
			d := uint64(e.Src) >> shift & 0xff
			spare[start[d]] = e
			start[d]++
		}
		sorted, spare = spare, sorted
	}
	dsts := make([]graph.VertexID, len(sorted))
	for i, e := range sorted {
		dsts[i] = e.Dst
	}
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Src == sorted[i].Src {
			j++
		}
		if err := fn(sorted[i].Src, dsts[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// BatchGraph is an optional extension for storage formats that answer a
// whole fringe in one pass. StreamDB implements it: its append-only log
// cannot serve per-vertex lookups without a full scan, so the search
// algorithm posts all fringe vertices at once (paper §4.1.5).
type BatchGraph interface {
	// AdjacencyBatch retrieves adjacency for every fringe vertex,
	// filtered exactly like AdjacencyUsingMetadata, appending all
	// surviving neighbours to out.
	AdjacencyBatch(fringe []graph.VertexID, out *graph.AdjList, md int32, op MetaOp) error
}

// AdjacencyBatch expands a whole fringe: it uses the BatchGraph fast path
// when g provides one and falls back to per-vertex retrieval otherwise.
func AdjacencyBatch(g Graph, fringe []graph.VertexID, out *graph.AdjList, md int32, op MetaOp) error {
	if bg, ok := g.(BatchGraph); ok {
		return bg.AdjacencyBatch(fringe, out, md, op)
	}
	for _, v := range fringe {
		if err := g.AdjacencyUsingMetadata(v, out, md, op); err != nil {
			return err
		}
	}
	return nil
}

// Prefetcher is an optional extension for backends that can warm their
// caches for a whole fringe with offset-sorted reads before expansion
// (the pre-fetching optimization of paper §4.2). It returns the number
// of blocks touched.
//
// No query path calls it: the traversal kernel sorts each level into
// block order instead (DESIGN.md §8.1), which reads no more blocks. It
// stays, with AsyncPrefetcher and PrefetchJob, only because the
// benchmark module's wrapper-capability test still expects grDB to
// expose it; it goes when that test does.
type Prefetcher interface {
	PrefetchAdjacency(fringe []graph.VertexID) (int, error)
}

// PrefetchJob is a handle to one in-flight asynchronous prefetch (see
// AsyncPrefetcher).
type PrefetchJob interface {
	// Wait blocks until the job has finished (completed, failed, or was
	// cancelled) and every goroutine it started has exited, then returns
	// the job's first error. A cancelled job returns the context error.
	// Wait is idempotent.
	Wait() error
	// Cancel asks the job to stop early. It does not wait; call Wait to
	// join. Safe to call more than once, and after completion.
	Cancel()
}

// AsyncPrefetcher is an optional extension for backends that can warm
// their caches in the background, overlapping the next BFS level's I/O
// with the current level's expansion (the pipelined refinement of the
// §4.2 prefetch). The returned job reads the fringe's chains with
// offset-sorted batched block reads on worker goroutines; the caller
// Waits before expanding that fringe, and must Wait (or Cancel then
// Wait) before discarding the job — Wait's return guarantees no
// goroutine is left running. Prefetching is an accelerator: a job error
// only means the cache was not fully warmed, never that data is wrong,
// so callers may ignore it and let expansion surface any real I/O
// failure. Like Prefetcher, it has no caller on the query path and is
// kept only for the benchmark module's wrapper-capability test.
type AsyncPrefetcher interface {
	PrefetchAsync(ctx context.Context, fringe []graph.VertexID) PrefetchJob
}

// Checkpointer is an optional extension for backends that persist an
// application checkpoint blob atomically with the graph itself: the blob
// staged by SetCheckpoint becomes durable in the same commit (Flush)
// that makes the edges stored before it durable, so the two can never
// diverge across a crash. The ingest pipeline stores its set of applied
// window ids here to achieve exactly-once edge delivery across restarts.
type Checkpointer interface {
	// SetCheckpoint stages blob; it is committed by the next Flush.
	SetCheckpoint(blob []byte) error
	// GetCheckpoint returns the blob from the last committed Flush (nil
	// when none was ever staged). The returned slice must not be
	// modified.
	GetCheckpoint() ([]byte, error)
}

// VertexScanner is an optional extension for backends that can
// enumerate the vertices they store adjacency for. Live shard migration
// depends on it: a source node walks its local vertex set to find the
// shards whose replica placement changes under a pending topology.
type VertexScanner interface {
	// ForEachVertex calls fn for every locally stored vertex with at
	// least one out-edge, in ascending ID order. fn returning an error
	// stops the scan and surfaces that error. The scan is a reader under
	// the package concurrency contract: safe alongside other readers, not
	// alongside mutators.
	ForEachVertex(fn func(v graph.VertexID) error) error
}

// ForEachVertex enumerates g's stored vertices via the VertexScanner
// fast path, or reports that the backend cannot enumerate.
func ForEachVertex(g Graph, fn func(v graph.VertexID) error) error {
	vs, ok := g.(VertexScanner)
	if !ok {
		return fmt.Errorf("graphdb: %T cannot enumerate vertices (no VertexScanner)", g)
	}
	return vs.ForEachVertex(fn)
}

// GenerationReader is an optional extension for backends that stamp
// committed graph state with a monotonically increasing generation
// (grDB bumps its manifest generation on every Flush). The serving tier
// pins a query's generation at admission and keys its result cache on
// it, so a result computed against one committed graph state is never
// replayed against another. Generation must be safe to read
// concurrently with readers; a bump becomes visible no later than the
// Flush that committed the change.
type GenerationReader interface {
	Generation() uint64
}

// GenerationOf returns g's committed-state generation stamp, using the
// GenerationReader fast path when available and falling back to the
// stored-edge count otherwise — EdgesStored is monotonic under ingest
// (dedup re-ships don't move it), so it distinguishes graph states
// within one process lifetime, which is all an in-process result cache
// needs. The fallback does not observe SetMetadata mutations; MSSG's
// query algorithms keep their visited state outside vertex metadata.
func GenerationOf(g Graph) uint64 {
	if gr, ok := g.(GenerationReader); ok {
		return gr.Generation()
	}
	return uint64(g.Stats().EdgesStored)
}

// GraphsGeneration folds every back-end's generation into one stamp for
// a partitioned deployment: a change on any node changes the sum. Sums
// (not hashes) keep the stamp monotonic, so "newer" still orders.
func GraphsGeneration(dbs []Graph) uint64 {
	var gen uint64
	for _, g := range dbs {
		gen += GenerationOf(g)
	}
	return gen
}

// IOCounters is an optional extension reporting physical I/O for
// out-of-core implementations.
type IOCounters interface {
	IOCounters() (blockReads, blockWrites int64)
}

// CacheStats is an optional extension exposing block-cache behaviour.
type CacheStats interface {
	CacheStats() (hits, misses int64)
}
