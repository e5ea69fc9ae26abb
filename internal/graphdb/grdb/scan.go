package grdb

import (
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// ForEachVertex implements graphdb.VertexScanner: every vertex with at
// least one stored out-edge, ascending. grDB has no vertex directory —
// a vertex's chain starts at the level-0 sub-block its ID hashes to — so
// the scan sweeps the ID space up to the highest source vertex ever
// stored and probes each chain's fill point, which costs one level-0
// block read per candidate and no list materialization.
func (d *DB) ForEachVertex(fn func(v graph.VertexID) error) error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	var l link
	for v := graph.VertexID(0); v <= d.maxVertex; v++ {
		if err := d.link(anchor(v), &l); err != nil {
			return err
		}
		if err := l.h.Release(); err != nil {
			return err
		}
		if l.fill == 0 {
			continue
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}
