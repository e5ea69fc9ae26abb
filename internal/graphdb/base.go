package graphdb

import (
	"mssg/internal/graph"
	"mssg/internal/obs"
)

// Base is the part of the Listing 3.1 contract that does not depend on
// how a back-end stores adjacency: the closed state, the per-vertex
// metadata table, the operation counters, and the checks every
// StoreEdges and adjacency retrieval makes before it touches storage.
// Every back-end embeds one, so Metadata, SetMetadata, ResetMetadata
// and Stats are promoted from here; a back-end adds StoreEdges,
// AdjacencyUsingMetadata, Flush and Close around its storage. The zero
// value is an open instance with no metadata.
//
// The metadata table is in memory on every back-end: the paper's search
// experiments fix it there "to characterize the operation of the actual
// graph storage" (chapter 5), so adjacency storage is the only
// variable. Unset vertices read as 0, the Java prototype's default int.
type Base struct {
	meta   map[graph.VertexID]int32
	stats  StatCounters
	closed bool
}

// Metadata implements Graph.
func (b *Base) Metadata(v graph.VertexID) (int32, error) {
	if b.closed {
		return 0, ErrClosed
	}
	return b.meta[v], nil
}

// SetMetadata implements Graph.
func (b *Base) SetMetadata(v graph.VertexID, md int32) error {
	if b.closed {
		return ErrClosed
	}
	if b.meta == nil {
		b.meta = make(map[graph.VertexID]int32)
	}
	b.meta[v] = md
	return nil
}

// ResetMetadata implements MetadataResetter.
func (b *Base) ResetMetadata() { clear(b.meta) }

// Stats implements Graph.
func (b *Base) Stats() Stats { return b.stats.Snapshot() }

// Flush implements Graph for a back-end whose stores are visible at
// once: it only refuses a closed instance.
func (b *Base) Flush() error {
	if b.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Graph for a back-end with nothing to release: it
// marks the instance closed. A back-end with storage calls it from its
// own Close once that storage is flushed.
func (b *Base) Close() error {
	b.closed = true
	return nil
}

// Closed reports whether the instance has been closed.
func (b *Base) Closed() bool { return b.closed }

// EnableLatency turns on the per-operation latency histograms (see
// StatCounters.EnableLatency).
func (b *Base) EnableLatency(reg *obs.Registry, backend string) {
	b.stats.EnableLatency(reg, backend)
}

// StoreBatch is the front of every StoreEdges: it refuses a closed
// instance and validates the whole batch before store sees any of it,
// so a batch holding one invalid edge stores nothing. It then times
// store, and credits the batch to Stats().EdgesStored when store
// succeeds. An empty batch returns nil without calling store.
func (b *Base) StoreBatch(edges []graph.Edge, store func([]graph.Edge) error) error {
	if b.closed {
		return ErrClosed
	}
	for _, e := range edges {
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
	}
	if len(edges) == 0 {
		return nil
	}
	start := b.stats.OpStart()
	err := store(edges)
	b.stats.ObserveStore(start)
	if err == nil {
		b.stats.edgesStored.Add(int64(len(edges)))
	}
	return err
}

// BeginAdjacency is the front of every adjacency retrieval: ErrClosed
// on a closed instance, otherwise it counts the calls retrievals it answers and returns
// the start time EndAdjacency takes (0 when latency is off).
func (b *Base) BeginAdjacency(calls int64) (start int64, err error) {
	if b.closed {
		return 0, ErrClosed
	}
	b.stats.adjacencyCalls.Add(calls)
	return b.stats.OpStart(), nil
}

// EndAdjacency credits n returned neighbours and records the latency of
// the retrieval BeginAdjacency started; a start of 0 records none.
func (b *Base) EndAdjacency(start, n int64) {
	b.stats.neighborsReturned.Add(n)
	b.stats.ObserveAdjacency(start)
}

// Passes reports whether neighbour u passes the Listing 3.1 filter
// (ref, op) on its metadata.
func (b *Base) Passes(u graph.VertexID, ref int32, op MetaOp) bool {
	return op.Matches(b.meta[u], ref)
}

// Filter appends each of neighbors that passes (ref, op) to out and
// returns how many it appended.
func (b *Base) Filter(neighbors []graph.VertexID, out *graph.AdjList, ref int32, op MetaOp) int64 {
	if op == MetaIgnore {
		out.AppendAll(neighbors)
		return int64(len(neighbors))
	}
	var n int64
	for _, u := range neighbors {
		if b.Passes(u, ref, op) {
			out.Append(u)
			n++
		}
	}
	return n
}

// MetadataResetter is a Graph whose metadata table can be cleared
// wholesale between queries. Every built-in back-end has it, promoted
// from Base; only a Graph written outside this tree can lack it.
type MetadataResetter interface {
	ResetMetadata()
}

// ResetMetadata clears g's metadata table if the backend supports it and
// reports whether it did.
func ResetMetadata(g Graph) bool {
	if r, ok := g.(MetadataResetter); ok {
		r.ResetMetadata()
		return true
	}
	return false
}
