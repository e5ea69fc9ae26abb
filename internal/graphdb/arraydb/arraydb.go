// Package arraydb is the Array GraphDB instance (paper §4.1.1, Fig 4.1):
// the standard compressed adjacency list (CSR) format. Two arrays store
// the graph — adj concatenates every adjacency list, xadj[v] points at the
// start of v's list — giving the fastest possible in-memory retrieval.
//
// As in the prototype, edges stream into a temporary per-vertex table
// during ingestion and are compacted into the CSR arrays at Flush (the
// paper stages ingestion through its HashMap implementation for the same
// reason: CSR cannot grow dynamically). Also as in the paper, each node
// stores the full xadj array over the global ID space, which is why the
// format's memory footprint does not scale with back-end count (§4.1.1).
package arraydb

import (
	"fmt"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

func init() {
	graphdb.Register("array", func(opts graphdb.Options) (graphdb.Graph, error) {
		d := New()
		d.EnableLatency(opts.Metrics, "array")
		return d, nil
	})
}

// DB is an in-memory CSR graph store.
type DB struct {
	graphdb.Base

	// staging holds edges until the next compaction.
	staging map[graph.VertexID][]graph.VertexID
	dirty   bool

	// CSR arrays, rebuilt by Flush. xadj has maxID+2 entries so the usual
	// adj[xadj[v]:xadj[v+1]] window works for every v.
	xadj  []int64
	adj   []graph.VertexID
	maxID graph.VertexID
}

// New returns an empty Array instance.
func New() *DB {
	return &DB{
		staging: make(map[graph.VertexID][]graph.VertexID),
		maxID:   -1,
	}
}

// StoreEdges implements graphdb.Graph.
func (d *DB) StoreEdges(edges []graph.Edge) error { return d.StoreBatch(edges, d.stage) }

func (d *DB) stage(edges []graph.Edge) error {
	for _, e := range edges {
		d.staging[e.Src] = append(d.staging[e.Src], e.Dst)
		d.maxID = max(d.maxID, e.Src, e.Dst)
	}
	d.dirty = true
	return nil
}

// Flush compacts staged edges into the CSR arrays. Staged lists are merged
// with any previously compacted adjacency (full rebuild: CSR is a static
// format).
func (d *DB) Flush() error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	if !d.dirty {
		return nil
	}
	n := int64(d.maxID) + 1
	counts := make([]int64, n+1)
	// Degree from the old CSR...
	for v := int64(0); v < int64(len(d.xadj))-1; v++ {
		counts[v+1] += d.xadj[v+1] - d.xadj[v]
	}
	// ...plus staged additions.
	var staged int64
	for v, list := range d.staging {
		counts[int64(v)+1] += int64(len(list))
		staged += int64(len(list))
	}
	newXadj := make([]int64, n+1)
	for v := int64(1); v <= n; v++ {
		newXadj[v] = newXadj[v-1] + counts[v]
	}
	newAdj := make([]graph.VertexID, newXadj[n])
	cursor := make([]int64, n)
	copy(cursor, newXadj[:n])
	for v := int64(0); v < int64(len(d.xadj))-1; v++ {
		for _, u := range d.adj[d.xadj[v]:d.xadj[v+1]] {
			newAdj[cursor[v]] = u
			cursor[v]++
		}
	}
	for v, list := range d.staging {
		for _, u := range list {
			newAdj[cursor[v]] = u
			cursor[v]++
		}
	}
	d.xadj = newXadj
	d.adj = newAdj
	d.staging = make(map[graph.VertexID][]graph.VertexID)
	d.dirty = false
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if d.dirty { // a closed DB is never dirty: Close flushed it
		return fmt.Errorf("arraydb: adjacency requested with staged edges; call Flush first")
	}
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}
	var n int64
	if int64(v) >= 0 && int64(v) < int64(len(d.xadj))-1 {
		n = d.Filter(d.adj[d.xadj[v]:d.xadj[v+1]], out, md, op)
	}
	d.EndAdjacency(start, n)
	return nil
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.Closed() {
		return nil
	}
	if err := d.Flush(); err != nil {
		return err
	}
	return d.Base.Close()
}
