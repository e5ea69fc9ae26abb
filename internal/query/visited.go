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

// MemVisited is the in-memory visited structure: the paper's level[]
// array, paged. Each id below 2^32 has one uint32 slot holding level+1
// (0 = unvisited) in a 64 Ki-id page allocated on first touch, under a
// fixed directory of page pointers; ids at or above 2^32, including
// negative ids decoded off the wire, live in a mutex-guarded overflow
// map. It costs 4 B per id in the pages a node touches plus the 512 KiB
// directory, and no hash per examined edge.
//
// MarkIfNew and Level are safe for concurrent use: a slot is read with
// an atomic load and claimed with one CAS, and a page is installed with
// one CAS, so parallel expansion workers need no lock.
type MemVisited struct {
	dir   [visitedPages]atomic.Pointer[visitedPage]
	count atomic.Int64

	mu    sync.Mutex
	pages []*visitedPage // every installed page, cleared by Reset
	over  map[graph.VertexID]int32
}

const (
	visitedPageBits = 16
	visitedPageSize = 1 << visitedPageBits
	visitedPages    = 1 << (32 - visitedPageBits)
)

type visitedPage [visitedPageSize]atomic.Uint32

// NewMemVisited returns an empty in-memory visited set.
func NewMemVisited() *MemVisited {
	return &MemVisited{over: make(map[graph.VertexID]int32)}
}

// slot returns v's level slot, installing its page when install is set;
// nil for an id on no installed page.
func (m *MemVisited) slot(v uint32, install bool) *atomic.Uint32 {
	d := &m.dir[v>>visitedPageBits]
	p := d.Load()
	if p == nil {
		if !install {
			return nil
		}
		p = new(visitedPage)
		if d.CompareAndSwap(nil, p) {
			m.mu.Lock()
			m.pages = append(m.pages, p)
			m.mu.Unlock()
		} else {
			p = d.Load()
		}
	}
	return &p[v&(visitedPageSize-1)]
}

// MarkIfNew implements Visited; safe for concurrent use. A marker that
// loses the CAS to another worker on the same vertex counts one
// query.visited.contention.
func (m *MemVisited) MarkIfNew(v graph.VertexID, level int32) (bool, error) {
	if level < 0 {
		return false, fmt.Errorf("query: negative visited level %d", level)
	}
	if uint64(v) >= 1<<32 {
		return m.markOverflow(v, level), nil
	}
	s := m.slot(uint32(v), true)
	if s.Load() != 0 {
		return false, nil
	}
	if !s.CompareAndSwap(0, uint32(level)+1) {
		qm().contention.Inc()
		return false, nil
	}
	m.count.Add(1)
	return true, nil
}

func (m *MemVisited) markOverflow(v graph.VertexID, level int32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, seen := m.over[v]; seen {
		return false
	}
	m.over[v] = level
	m.count.Add(1)
	return true
}

// Level implements Visited; safe for concurrent use.
func (m *MemVisited) Level(v graph.VertexID) (int32, error) {
	if uint64(v) >= 1<<32 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if l, seen := m.over[v]; seen {
			return l, nil
		}
		return -1, nil
	}
	if s := m.slot(uint32(v), false); s != nil {
		return int32(s.Load() - 1), nil
	}
	return -1, nil
}

// Count implements Visited.
func (m *MemVisited) Count() int64 { return m.count.Load() }

// Close implements Visited.
func (m *MemVisited) Close() error { return nil }

// Reset empties the set for reuse by a later query. It zeroes the pages
// it has installed and keeps them. Not safe to call concurrently with
// markers: the owning query must have finished.
func (m *MemVisited) Reset() {
	for _, p := range m.pages {
		*p = visitedPage{}
	}
	clear(m.over)
	m.count.Store(0)
}

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

// lockedVisited adapts a non-concurrent caller-provided Visited (such as
// ExtVisited) for parallel expansion with one mutex.
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
// (BFSConfig.Workers > 1): MemVisited passes through, any other
// structure is wrapped in a single mutex.
func ensureConcurrentVisited(v Visited) Visited {
	if _, ok := v.(*MemVisited); ok {
		return v
	}
	return &lockedVisited{inner: v}
}
