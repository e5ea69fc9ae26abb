package grdb

import (
	"fmt"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// StoreEdges implements graphdb.Graph. Edges are grouped by source so each
// vertex's chain is walked once per batch; within a chain, appends go to
// the first empty slot (found by binary search) and overflow allocates a
// sub-block at the next level, exactly as §3.4.1 describes (the prototype
// "links on overflow" rather than copying up; see Defragment for the
// copy-up compaction it defers to idle time). A durable StoreEdges that
// fails leaves the DB at its last commit (see abort).
func (d *DB) StoreEdges(edges []graph.Edge) error { return d.StoreBatch(edges, d.store) }

func (d *DB) store(edges []graph.Edge) error {
	for _, e := range edges {
		if uint64(e.Src) > maxStoreable || uint64(e.Dst) > maxStoreable {
			return fmt.Errorf("grdb: vertex id beyond 61-bit storeable range: %v", e)
		}
	}
	err := graphdb.GroupBySource(edges, func(src graph.VertexID, dsts []graph.VertexID) error {
		if err := d.appendNeighbors(src, dsts); err != nil {
			return err
		}
		d.edges.Add(int64(len(dsts)))
		if src > d.maxVertex {
			d.maxVertex = src
		}
		return nil
	})
	if err != nil && d.durable {
		return d.abort(err)
	}
	return err
}

// appendNeighbors walks v's chain to its tail and appends ids, overflowing
// into higher levels as sub-blocks fill. A tail hint (when present) lets
// the walk start at the last known tail instead of level 0. In link mode
// (the prototype's choice) an overflowing sub-block keeps its contents
// and points to the new one; in copy-up mode (§3.4.1's alternative) its
// contents move into the new sub-block and the parent pointer is
// redirected, keeping every chain at most level-0 → tail until the top
// level.
func (d *DB) appendNeighbors(v graph.VertexID, ids []graph.VertexID) error {
	p := anchor(v)
	if !d.copyUp {
		if hint, ok := d.tailHint[v]; ok {
			p = hint
		}
		defer func() {
			d.tailHint[v] = p
		}()
	}
	// parent is the sub-block whose last slot points at p. Copy-up
	// redirects it only above level 0, and without tail hints p leaves
	// level 0 only by a step that sets parent.
	var parent subPos
	var l link
	for len(ids) > 0 {
		if err := d.link(p, &l); err != nil {
			return err
		}
		if l.next.level >= 0 {
			if err := l.h.Release(); err != nil {
				return err
			}
			parent, p = p, l.next
			continue
		}
		ℓ, h, sub, fill := p.level, l.h, l.sub, l.fill
		capSlots := d.levels[ℓ].d

		// Append into free slots.
		for len(ids) > 0 && fill < capSlots {
			setWord(sub, fill, encodeNeighbor(ids[0]))
			ids = ids[1:]
			fill++
		}
		if len(ids) == 0 {
			h.MarkDirty()
			return h.Release()
		}

		nl := d.nextLevel(ℓ)
		if d.copyUp && ℓ > 0 && nl != ℓ {
			// Copy-up: move this sub-block's contents into a fresh,
			// larger sub-block (d_{ℓ+1} >= 2·d_ℓ guarantees room), then
			// redirect the parent pointer and abandon the old sub-block.
			newSub := d.allocSub(nl)
			moved := make([]graph.VertexID, capSlots)
			for i := 0; i < capSlots; i++ {
				moved[i] = decodeNeighbor(getWord(sub, i))
			}
			if err := h.Release(); err != nil {
				return err
			}
			nh, nsub, err := d.subBlock(nl, newSub)
			if err != nil {
				return err
			}
			for i, u := range moved {
				setWord(nsub, i, encodeNeighbor(u))
			}
			nh.MarkDirty()
			if err := nh.Release(); err != nil {
				return err
			}
			ph, psub, err := d.subBlock(parent.level, parent.sub)
			if err != nil {
				return err
			}
			setWord(psub, d.levels[parent.level].d-1, encodePointer(nl, newSub))
			ph.MarkDirty()
			if err := ph.Release(); err != nil {
				return err
			}
			p = subPos{level: nl, sub: newSub}
			continue
		}

		// Link: evict the last neighbour into a freshly allocated
		// sub-block at the next level and replace it with the
		// continuation pointer.
		newSub := d.allocSub(nl)
		evicted := decodeNeighbor(getWord(sub, capSlots-1))
		setWord(sub, capSlots-1, encodePointer(nl, newSub))
		h.MarkDirty()
		if err := h.Release(); err != nil {
			return err
		}
		ids = append([]graph.VertexID{evicted}, ids...)
		parent, p = p, subPos{level: nl, sub: newSub}
	}
	return nil
}

// AdjacencyUsingMetadata implements graphdb.Graph.
func (d *DB) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	start, err := d.BeginAdjacency(1)
	if err != nil {
		return err
	}
	if uint64(v) > maxStoreable {
		return fmt.Errorf("grdb: vertex id %d beyond 61-bit storeable range", v)
	}
	ignore := op == graphdb.MetaIgnore
	var (
		l link
		n int64
	)
	for p := anchor(v); p.level >= 0 && err == nil; p = l.next {
		if err = d.link(p, &l); err != nil {
			break
		}
		for i := 0; i < l.n; i++ {
			u := decodeNeighbor(getWord(l.sub, i))
			if ignore || d.Passes(u, md, op) {
				out.Append(u)
				n++
			}
		}
		err = l.h.Release()
	}
	d.EndAdjacency(start, n)
	return err
}

// chain walks v's chain and returns its length in non-empty sub-blocks
// and its degree; when adj is non-nil, v's neighbours are appended to it
// in storage order.
func (d *DB) chain(v graph.VertexID, adj *[]graph.VertexID) (hops int, degree int64, err error) {
	var l link
	for p := anchor(v); p.level >= 0; p = l.next {
		if err := d.link(p, &l); err != nil {
			return 0, 0, err
		}
		if l.fill > 0 {
			hops++
		}
		degree += int64(l.n)
		for i := 0; adj != nil && i < l.n; i++ {
			*adj = append(*adj, decodeNeighbor(getWord(l.sub, i)))
		}
		if err := l.h.Release(); err != nil {
			return 0, 0, err
		}
	}
	return hops, degree, nil
}

// Degree returns v's stored out-degree (chain walk).
func (d *DB) Degree(v graph.VertexID) (int64, error) {
	if d.Closed() {
		return 0, graphdb.ErrClosed
	}
	_, n, err := d.chain(v, nil)
	return n, err
}

// ChainLength returns the number of sub-blocks in v's chain (1 when the
// adjacency fits at level 0; 0 for unknown vertices). Used by the
// defragmentation ablation.
func (d *DB) ChainLength(v graph.VertexID) (int, error) {
	if d.Closed() {
		return 0, graphdb.ErrClosed
	}
	hops, _, err := d.chain(v, nil)
	return hops, err
}

// Flush implements graphdb.Graph. In durable mode it is an atomic
// checkpoint: when it returns nil, every edge stored and checkpoint
// blob staged before the call survives any crash; when it fails, the
// DB holds what the last commit holds (see durable.go).
func (d *DB) Flush() error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	if d.durable {
		if err := d.checkpoint(); err != nil {
			return d.abort(err)
		}
		return nil
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	if err := d.saveManifest(); err != nil {
		return err
	}
	d.ckptCommitted = d.ckptStaged
	return nil
}

// Close implements graphdb.Graph.
func (d *DB) Close() error {
	if d.Closed() {
		return nil
	}
	// Cancel and join every in-flight prefetch before touching the
	// stores: Wait()'s contract guarantees no prefetch goroutine
	// outlives the instance.
	d.pf.drain()
	if err := d.Flush(); err != nil {
		return err
	}
	d.Base.Close()
	var first error
	for _, l := range d.levels {
		if err := l.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats implements graphdb.Graph, with EdgesStored from the manifest
// state: a failed durable store rewinds it with the rest of the DB.
func (d *DB) Stats() graphdb.Stats {
	s := d.Base.Stats()
	s.EdgesStored = d.edges.Load()
	return s
}

// Generation implements graphdb.GenerationReader: the manifest
// generation, bumped by every Flush (and checkpoint commit), read
// through an atomic mirror so query admission can pin it while ingest
// proceeds on another goroutine.
func (d *DB) Generation() uint64 { return d.genMirror.Load() }

// IOCounters implements graphdb.IOCounters, summing all levels.
func (d *DB) IOCounters() (blockReads, blockWrites int64) {
	for _, l := range d.levels {
		c := l.store.Counters()
		blockReads += c.BlockReads
		blockWrites += c.BlockWrites
	}
	return blockReads, blockWrites
}

// IOBytes reports physical bytes moved to and from the backing stores,
// summing all levels.
func (d *DB) IOBytes() (bytesRead, bytesWritten int64) {
	for _, l := range d.levels {
		c := l.store.Counters()
		bytesRead += c.BytesRead
		bytesWritten += c.BytesWritten
	}
	return bytesRead, bytesWritten
}

// CacheStats implements graphdb.CacheStats.
func (d *DB) CacheStats() (hits, misses int64) {
	s := d.cache.Stats()
	return s.Hits, s.Misses
}
