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
		d.stats.EnableLatency(opts.Metrics, "array")
		return d, nil
	})
}

// DB is an in-memory CSR graph store.
type DB struct {
	meta *graphdb.MetaMap

	// staging holds edges until the next compaction.
	staging map[graph.VertexID][]graph.VertexID
	dirty   bool

	// CSR arrays, rebuilt by Flush. xadj has maxID+2 entries so the usual
	// adj[xadj[v]:xadj[v+1]] window works for every v.
	xadj  []int64
	adj   []graph.VertexID
	maxID graph.VertexID

	closed bool
	stats  graphdb.StatCounters
}

// New returns an empty Array instance.
func New() *DB {
	return &DB{
		meta:    graphdb.NewMetaMap(),
		staging: make(map[graph.VertexID][]graph.VertexID),
		maxID:   -1,
	}
}

// StoreEdges implements graphdb.Graph.
func (d *DB) StoreEdges(edges []graph.Edge) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveStore(start)
	for _, e := range edges {
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
		d.staging[e.Src] = append(d.staging[e.Src], e.Dst)
		if e.Src > d.maxID {
			d.maxID = e.Src
		}
		if e.Dst > d.maxID {
			d.maxID = e.Dst
		}
		d.stats.AddEdgesStored(1)
	}
	d.dirty = d.dirty || len(edges) > 0
	return nil
}

// Flush compacts staged edges into the CSR arrays. Staged lists are merged
// with any previously compacted adjacency (full rebuild: CSR is a static
// format).
func (d *DB) Flush() error {
	if d.closed {
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

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	if d.closed {
		return graphdb.ErrClosed
	}
	if d.dirty {
		return fmt.Errorf("arraydb: adjacency requested with staged edges; call Flush first")
	}
	start := d.stats.OpStart()
	defer d.stats.ObserveAdjacency(start)
	d.stats.AddAdjacencyCall()
	if int64(v) < 0 || int64(v) >= int64(len(d.xadj))-1 {
		return nil
	}
	neighbors := d.adj[d.xadj[v]:d.xadj[v+1]]
	d.stats.AddNeighborsReturned(graphdb.FilterAppend(d.meta, neighbors, out, md, op))
	return nil
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
	return nil
}

// Stats implements graphdb.Graph.
func (d *DB) Stats() graphdb.Stats { return d.stats.Snapshot() }

// ResetMetadata clears all metadata between queries.
func (d *DB) ResetMetadata() { d.meta.Reset() }
