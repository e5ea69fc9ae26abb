package grdb

import (
	"fmt"

	"mssg/internal/graph"
)

// CheckReport summarizes a storage integrity scan.
type CheckReport struct {
	// Vertices is the number of vertices with stored adjacency.
	Vertices int64
	// Edges is the total number of stored neighbour entries.
	Edges int64
	// Chains is the total number of chain sub-blocks in use (excluding
	// empty level-0 sub-blocks).
	Chains int64
	// MaxChain is the longest chain encountered.
	MaxChain int
	// LevelSubBlocks[ℓ] counts live sub-blocks per level.
	LevelSubBlocks []int64
}

// Check walks every vertex chain and validates the storage invariants
// the format relies on (a database fsck):
//
//   - every pointer moves strictly forward and targets a sub-block
//     inside the ladder, below its level's allocation high-water mark
//     (DB.link; this also rules out cycles);
//   - slots fill contiguously: no neighbour word follows an empty slot;
//   - every stored neighbour ID is a legal 61-bit vertex.
//
// It returns a report, or the first violation found.
func (d *DB) Check() (CheckReport, error) {
	if d.Closed() {
		return CheckReport{}, fmt.Errorf("grdb: check on closed database")
	}
	report := CheckReport{LevelSubBlocks: make([]int64, len(d.levels))}
	var l link
	for v := graph.VertexID(0); v <= d.maxVertex; v++ {
		hops := 0
		for p := anchor(v); p.level >= 0; p = l.next {
			if err := d.link(p, &l); err != nil {
				return report, fmt.Errorf("%w (vertex %d)", err, v)
			}
			err := d.checkLink(p, &l)
			if rerr := l.h.Release(); err == nil {
				err = rerr
			}
			if err != nil {
				return report, fmt.Errorf("%w (vertex %d)", err, v)
			}
			if l.fill == 0 {
				break
			}
			hops++
			report.Chains++
			report.LevelSubBlocks[p.level]++
			report.Edges += int64(l.n)
		}
		if hops > 0 {
			report.Vertices++
		}
		report.MaxChain = max(report.MaxChain, hops)
	}
	return report, nil
}

// checkLink validates the words of one pinned sub-block: none past the
// fill point, and a legal neighbour in every slot before the
// continuation.
func (d *DB) checkLink(p subPos, l *link) error {
	for i := l.fill; i < d.levels[p.level].d; i++ {
		if getWord(l.sub, i) != wordEmpty {
			return fmt.Errorf("grdb: level %d sub-block %d has data after fill point %d", p.level, p.sub, l.fill)
		}
	}
	for i := 0; i < l.n; i++ {
		w := getWord(l.sub, i)
		if isPointer(w) {
			return fmt.Errorf("grdb: level %d sub-block %d slot %d holds a pointer before the last slot", p.level, p.sub, i)
		}
		if u := decodeNeighbor(w); !u.Valid() {
			return fmt.Errorf("grdb: level %d sub-block %d: invalid stored neighbour %d", p.level, p.sub, u)
		}
	}
	return nil
}
