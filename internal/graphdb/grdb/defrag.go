package grdb

import (
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// Defragmentation (§3.4.1): ingestion that adds neighbours in small groups
// leaves adjacency lists fragmented across many small sub-blocks linked
// level by level. The paper proposes compacting these chains "during idle
// time in the background". DefragmentVertex rewrites one vertex's chain as
// level 0 plus the shortest possible tail: the remainder goes directly
// into sub-blocks of the smallest level large enough to hold it.
//
// Superseded sub-blocks are not reclaimed (grDB has no free list — the
// paper's prototype likewise only ever allocates); the space cost is the
// price of the faster reads, and is reported by the ablation bench.

// DefragmentVertex compacts v's chain. It returns true if the chain was
// rewritten, false if it was already optimal.
func (d *DB) DefragmentVertex(v graph.VertexID) (bool, error) {
	if d.Closed() {
		return false, graphdb.ErrClosed
	}
	var adj []graph.VertexID
	cur, _, err := d.chain(v, &adj)
	if err != nil {
		return false, err
	}
	d0 := d.levels[0].d
	if len(adj) <= d0 {
		// Never overflowed; already a single level-0 sub-block.
		return false, nil
	}
	want := 1 + d.tailBlocksNeeded(len(adj)-(d0-1))
	if cur <= want {
		return false, nil
	}
	return true, d.rewriteChain(v, adj)
}

// tailBlocksNeeded computes how many sub-blocks the compacted tail uses
// for `remaining` neighbours.
func (d *DB) tailBlocksNeeded(remaining int) int {
	blocks := 0
	ℓ := d.pickLevel(remaining)
	for remaining > 0 {
		capSlots := d.levels[ℓ].d
		blocks++
		if remaining <= capSlots {
			return blocks
		}
		remaining -= capSlots - 1 // last slot becomes a pointer
		ℓ = d.nextLevel(ℓ)
	}
	return blocks
}

// pickLevel returns the smallest level (>= 1) whose sub-block holds
// `remaining` neighbours, or the top level if none does.
func (d *DB) pickLevel(remaining int) int {
	for ℓ := 1; ℓ < len(d.levels); ℓ++ {
		if d.levels[ℓ].d >= remaining {
			return ℓ
		}
	}
	return len(d.levels) - 1
}

// rewriteChain writes v's full adjacency as level 0 (d0-1 neighbours +
// pointer) followed by a compact tail.
func (d *DB) rewriteChain(v graph.VertexID, adj []graph.VertexID) error {
	// The old chain (and any tail hint into it) is abandoned.
	delete(d.tailHint, v)
	d0 := d.levels[0].d
	a := anchor(v)
	h, sub, err := d.subBlock(a.level, a.sub)
	if err != nil {
		return err
	}
	for i := 0; i < d0-1; i++ {
		setWord(sub, i, encodeNeighbor(adj[i]))
	}
	rest := adj[d0-1:]
	tailLevel := d.pickLevel(len(rest))
	tailSub := d.allocSub(tailLevel)
	setWord(sub, d0-1, encodePointer(tailLevel, tailSub))
	h.MarkDirty()
	if err := h.Release(); err != nil {
		return err
	}

	ℓ, s := tailLevel, tailSub
	for len(rest) > 0 {
		h, sub, err := d.subBlock(ℓ, s)
		if err != nil {
			return err
		}
		capSlots := d.levels[ℓ].d
		if len(rest) <= capSlots {
			for i, u := range rest {
				setWord(sub, i, encodeNeighbor(u))
			}
			// Clear any stale words (a reused zero block has none, but a
			// rewrite must not leave old data behind future fill points).
			for i := len(rest); i < capSlots; i++ {
				setWord(sub, i, wordEmpty)
			}
			h.MarkDirty()
			return h.Release()
		}
		for i := 0; i < capSlots-1; i++ {
			setWord(sub, i, encodeNeighbor(rest[i]))
		}
		rest = rest[capSlots-1:]
		nl := d.nextLevel(ℓ)
		nextSub := d.allocSub(nl)
		setWord(sub, capSlots-1, encodePointer(nl, nextSub))
		h.MarkDirty()
		if err := h.Release(); err != nil {
			return err
		}
		ℓ, s = nl, nextSub
	}
	return nil
}

// Defragment compacts every vertex in [0, maxVertex]. It returns the
// number of rewritten chains. Intended to run between ingestion and query
// phases, standing in for the paper's background idle-time compaction.
func (d *DB) Defragment() (int64, error) {
	if d.Closed() {
		return 0, graphdb.ErrClosed
	}
	var rewritten int64
	for v := graph.VertexID(0); v <= d.maxVertex; v++ {
		ok, err := d.DefragmentVertex(v)
		if err != nil {
			return rewritten, err
		}
		if ok {
			rewritten++
		}
	}
	return rewritten, nil
}
