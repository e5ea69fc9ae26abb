package query

import (
	"sync"

	"mssg/internal/graph"
)

// Per-query scratch pooling. A resident engine runs queries back to
// back; re-allocating the visited pages and adjacency buffers for every
// one of them turns the allocator into the serving bottleneck. The pools
// below recycle the default (in-memory) structures across queries.
// Caller-provided NewVisited structures are not pooled — the engine
// cannot know how to reset them.

var adjPool = sync.Pool{
	New: func() any { return graph.NewAdjList(1024) },
}

// getAdjList returns a reset adjacency buffer from the pool.
func getAdjList() *graph.AdjList {
	a := adjPool.Get().(*graph.AdjList)
	a.Reset()
	return a
}

func putAdjList(a *graph.AdjList) { adjPool.Put(a) }

var memVisitedPool = sync.Pool{
	New: func() any { return NewMemVisited() },
}
