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
		d.EnableLatency(opts.Metrics, "hashmap")
		return d, nil
	})
}

// DB is an in-memory hash-of-adjacency-lists graph store. Flush and Close
// are graphdb.Base's: the structure is always live and holds nothing to
// release.
type DB struct {
	graphdb.Base

	// mu guards lists, the one exception to the package contract
	// (mutators externally serialized against readers): live shard
	// migration stores windows into a destination while BFS queries read
	// other shards from the same instance, and a Go map tolerates no
	// write concurrent with a read. Metadata follows the contract.
	mu    sync.RWMutex
	lists map[graph.VertexID][]graph.VertexID
}

// New returns an empty HashMap instance.
func New() *DB {
	return &DB{lists: make(map[graph.VertexID][]graph.VertexID)}
}

// StoreEdges implements graphdb.Graph.
func (d *DB) StoreEdges(edges []graph.Edge) error { return d.StoreBatch(edges, d.store) }

func (d *DB) store(edges []graph.Edge) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range edges {
		d.lists[e.Src] = append(d.lists[e.Src], e.Dst)
	}
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}
	d.mu.RLock()
	n := d.Filter(d.lists[v], out, md, op)
	d.mu.RUnlock()
	d.EndAdjacency(start, n)
	return nil
}

// ForEachVertex implements graphdb.VertexScanner: stored vertices in
// ascending ID order.
func (d *DB) ForEachVertex(fn func(v graph.VertexID) error) error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	d.mu.RLock()
	vs := make([]graph.VertexID, 0, len(d.lists))
	for v, adj := range d.lists {
		if len(adj) > 0 {
			vs = append(vs, v)
		}
	}
	d.mu.RUnlock()
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}
