// Package hashdb is the HashMap GraphDB instance (paper §4.1.2, Fig 4.2):
// each vertex's adjacency list is stored as its own growable array, and a
// hash table maps global vertex IDs to those arrays. Retrieval pays one
// hash lookup per vertex — the overhead the paper measures against Array —
// but the structure grows dynamically during ingestion and its memory use
// scales down as back-end nodes are added.
package hashdb

import (
	"sort"
	"sync"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

func init() {
	graphdb.Register("hashmap", func(opts graphdb.Options) (graphdb.Graph, error) {
		d := New()
		d.stats.EnableLatency(opts.Metrics, "hashmap")
		return d, nil
	})
}

// DB is an in-memory hash-of-adjacency-lists graph store.
//
// Unlike the package-level contract (mutators externally serialized
// against readers), hashdb carries its own reader/writer lock: live
// shard migration stores windows into a destination while concurrent
// BFS queries read other shards from the same instance, and an
// in-memory map cannot tolerate that without internal locking. Mutators
// still must not run concurrently with each other.
type DB struct {
	mu     sync.RWMutex
	meta   *graphdb.MetaMap
	lists  map[graph.VertexID][]graph.VertexID
	closed bool
	stats  graphdb.StatCounters
}

// New returns an empty HashMap instance.
func New() *DB {
	return &DB{
		meta:  graphdb.NewMetaMap(),
		lists: make(map[graph.VertexID][]graph.VertexID),
	}
}

// StoreEdges implements graphdb.Graph.
func (d *DB) StoreEdges(edges []graph.Edge) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return graphdb.ErrClosed
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveStore(start)
	for _, e := range edges {
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
		d.lists[e.Src] = append(d.lists[e.Src], e.Dst)
		d.stats.AddEdgesStored(1)
	}
	return nil
}

// Metadata implements graphdb.Graph.
func (d *DB) Metadata(v graph.VertexID) (int32, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, graphdb.ErrClosed
	}
	return d.meta.Get(v), nil
}

// SetMetadata implements graphdb.Graph.
func (d *DB) SetMetadata(v graph.VertexID, md int32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return graphdb.ErrClosed
	}
	d.meta.Set(v, md)
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return graphdb.ErrClosed
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveAdjacency(start)
	d.stats.AddAdjacencyCall()
	neighbors, ok := d.lists[v]
	if !ok {
		return nil
	}
	d.stats.AddNeighborsReturned(graphdb.FilterAppend(d.meta, neighbors, out, md, op))
	return nil
}

// Flush implements graphdb.Graph (a no-op: the structure is always live).
func (d *DB) Flush() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return graphdb.ErrClosed
	}
	return nil
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Stats implements graphdb.Graph.
func (d *DB) Stats() graphdb.Stats { return d.stats.Snapshot() }

// ResetMetadata clears all metadata between queries.
func (d *DB) ResetMetadata() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.meta.Reset()
}

// ForEachVertex implements graphdb.VertexScanner: stored vertices in
// ascending ID order.
func (d *DB) ForEachVertex(fn func(v graph.VertexID) error) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return graphdb.ErrClosed
	}
	vs := make([]graph.VertexID, 0, len(d.lists))
	for v, adj := range d.lists {
		if len(adj) > 0 {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}
