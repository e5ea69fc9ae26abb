// Package query implements MSSG's Query Service (paper §3.3, §4.2): the
// registry of data-analysis techniques and the two parallel out-of-core
// breadth-first search algorithms — level-synchronous (Algorithm 1) and
// pipelined (Algorithm 2) — running over any GraphDB backend on any
// cluster fabric.
package query

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mssg/internal/graph"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/cache"
)

// Visited tracks BFS levels per vertex (the paper's level[] array). The
// search experiments of chapter 5 fix this structure in memory to isolate
// graph-storage behaviour, except the Syn-2B runs which also exercise an
// external-memory variant (Figs 5.8, 5.9); both are provided.
type Visited interface {
	// MarkIfNew records v at `level` if v was unvisited; it reports
	// whether v was newly marked.
	MarkIfNew(v graph.VertexID, level int32) (bool, error)
	// Level returns v's recorded level, or -1 if unvisited.
	Level(v graph.VertexID) (int32, error)
	// Count returns the number of marked vertices.
	Count() int64
	// Close releases resources.
	Close() error
}

// MemVisited is the in-memory visited structure.
type MemVisited struct {
	levels map[graph.VertexID]int32
}

// NewMemVisited returns an empty in-memory visited set.
func NewMemVisited() *MemVisited {
	return &MemVisited{levels: make(map[graph.VertexID]int32)}
}

// MarkIfNew implements Visited.
func (m *MemVisited) MarkIfNew(v graph.VertexID, level int32) (bool, error) {
	if _, seen := m.levels[v]; seen {
		return false, nil
	}
	m.levels[v] = level
	return true, nil
}

// Level implements Visited.
func (m *MemVisited) Level(v graph.VertexID) (int32, error) {
	if l, seen := m.levels[v]; seen {
		return l, nil
	}
	return -1, nil
}

// Count implements Visited.
func (m *MemVisited) Count() int64 { return int64(len(m.levels)) }

// Close implements Visited.
func (m *MemVisited) Close() error { return nil }

// Reset empties the set for reuse by a later query (keeps the map's
// allocated buckets).
func (m *MemVisited) Reset() { clear(m.levels) }

// ExtVisited is the external-memory visited structure: one byte per
// vertex (level+1; 0 = unvisited) in a block file behind a small cache.
// Level values are capped at 253, far beyond any small-world BFS depth.
type ExtVisited struct {
	store *blockio.Store
	cache *cache.BlockCache
	count int64
}

const (
	extVisitedBlock = 4096
	extVisitedSpace = 0
	maxExtLevel     = 253
)

// NewExtVisited creates an external visited structure under dir with the
// given cache budget (0 = 1 MB default).
func NewExtVisited(dir string, cacheBytes int64) (*ExtVisited, error) {
	if cacheBytes <= 0 {
		cacheBytes = 1 << 20
	}
	store, err := blockio.Open(dir, "visited", extVisitedBlock, 256<<20)
	if err != nil {
		return nil, err
	}
	c := cache.New(cacheBytes)
	if err := c.AttachSpace(extVisitedSpace, store); err != nil {
		store.Close()
		return nil, err
	}
	return &ExtVisited{store: store, cache: c}, nil
}

func (e *ExtVisited) locate(v graph.VertexID) (block int64, off int) {
	return int64(v) / extVisitedBlock, int(int64(v) % extVisitedBlock)
}

// MarkIfNew implements Visited.
func (e *ExtVisited) MarkIfNew(v graph.VertexID, level int32) (bool, error) {
	if level < 0 || level > maxExtLevel {
		return false, fmt.Errorf("query: level %d outside external-visited range", level)
	}
	block, off := e.locate(v)
	h, err := e.cache.Get(extVisitedSpace, block)
	if err != nil {
		return false, err
	}
	defer h.Release()
	if h.Data()[off] != 0 {
		return false, nil
	}
	h.Data()[off] = byte(level + 1)
	h.MarkDirty()
	e.count++
	return true, nil
}

// Level implements Visited.
func (e *ExtVisited) Level(v graph.VertexID) (int32, error) {
	block, off := e.locate(v)
	h, err := e.cache.Get(extVisitedSpace, block)
	if err != nil {
		return -1, err
	}
	defer h.Release()
	b := h.Data()[off]
	if b == 0 {
		return -1, nil
	}
	return int32(b) - 1, nil
}

// Count implements Visited.
func (e *ExtVisited) Count() int64 { return e.count }

// Close implements Visited.
func (e *ExtVisited) Close() error {
	if err := e.cache.Flush(); err != nil {
		return err
	}
	return e.store.Close()
}

// visitedShards is the stripe count of ShardedVisited. 64 stripes keep
// contention negligible for any realistic worker count while staying
// small enough that per-query allocation stays cheap.
const visitedShards = 64

// ShardedVisited is the striped-lock in-memory visited structure used
// by parallel fringe expansion: vertex v lives in stripe v % 64, so
// workers marking different regions of the ID space rarely contend.
type ShardedVisited struct {
	shards [visitedShards]struct {
		mu     sync.Mutex
		levels map[graph.VertexID]int32
	}
	count atomic.Int64
}

// NewShardedVisited returns an empty concurrency-safe visited set.
func NewShardedVisited() *ShardedVisited {
	s := &ShardedVisited{}
	for i := range s.shards {
		s.shards[i].levels = make(map[graph.VertexID]int32)
	}
	return s
}

// MarkIfNew implements Visited; safe for concurrent use. A failed
// TryLock counts one contended stripe acquisition — the cheap signal
// behind query.visited.contention (a TryLock is a single CAS; the
// blocking Lock that follows is what the workers would have paid anyway).
func (s *ShardedVisited) MarkIfNew(v graph.VertexID, level int32) (bool, error) {
	sh := &s.shards[uint64(v)%visitedShards]
	if !sh.mu.TryLock() {
		qm().contention.Inc()
		sh.mu.Lock()
	}
	if _, seen := sh.levels[v]; seen {
		sh.mu.Unlock()
		return false, nil
	}
	sh.levels[v] = level
	sh.mu.Unlock()
	s.count.Add(1)
	return true, nil
}

// Level implements Visited; safe for concurrent use.
func (s *ShardedVisited) Level(v graph.VertexID) (int32, error) {
	sh := &s.shards[uint64(v)%visitedShards]
	sh.mu.Lock()
	l, seen := sh.levels[v]
	sh.mu.Unlock()
	if !seen {
		return -1, nil
	}
	return l, nil
}

// Count implements Visited.
func (s *ShardedVisited) Count() int64 { return s.count.Load() }

// Close implements Visited.
func (s *ShardedVisited) Close() error { return nil }

// Reset empties the set for reuse by a later query. Not safe to call
// concurrently with markers — the owning query must have finished.
func (s *ShardedVisited) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		clear(sh.levels)
		sh.mu.Unlock()
	}
	s.count.Store(0)
}

// lockedVisited adapts a non-concurrent Visited (MemVisited, ExtVisited,
// or a caller-provided structure) for parallel expansion with one mutex.
// Coarse, but correct: ExtVisited's cache read-modify-write must not
// interleave.
type lockedVisited struct {
	mu    sync.Mutex
	inner Visited
}

func (l *lockedVisited) MarkIfNew(v graph.VertexID, level int32) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.MarkIfNew(v, level)
}

func (l *lockedVisited) Level(v graph.VertexID) (int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Level(v)
}

func (l *lockedVisited) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Count()
}

func (l *lockedVisited) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Close()
}

// ensureConcurrentVisited makes v safe for parallel expansion
// (BFSConfig.Workers > 1): the striped ShardedVisited passes through, any
// other structure is wrapped in a single mutex.
func ensureConcurrentVisited(v Visited) Visited {
	if _, ok := v.(*ShardedVisited); ok {
		return v
	}
	return &lockedVisited{inner: v}
}
