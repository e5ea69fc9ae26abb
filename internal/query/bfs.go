package query

import (
	"context"
	"errors"
	"fmt"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// ErrPartialCoverage marks a BFS that failed because a back-end node died
// (or timed out) mid-search: whatever was explored covers only part of
// the declustered graph, so a "not found" cannot be trusted. Callers
// detect it with errors.Is and either retry on the surviving fabric or
// surface the partial result to the user.
var ErrPartialCoverage = errors.New("query: partial graph coverage")

// Ownership selects how the BFS routes next-level fringe vertices
// (paper §4.2).
type Ownership int

const (
	// KnownMapping uses the globally known GID % p vertex→node mapping:
	// each discovered vertex is sent only to its owner.
	KnownMapping Ownership = iota
	// BroadcastFringe broadcasts discovered vertices to all nodes, as
	// required for edge-granularity storage or unknown mappings.
	BroadcastFringe
)

func (o Ownership) String() string {
	if o == KnownMapping {
		return "known-mapping"
	}
	return "broadcast"
}

// Routing is where a traversal's fringe goes (paper §4.2) and which nodes
// serve it; core.Engine fills it from the placement policy.
type Routing struct {
	// Ownership selects fringe routing (paper Algorithm 1, lines 16-21).
	Ownership Ownership
	// OwnerOf overrides the GID % p vertex→node mapping under
	// KnownMapping ownership — used with directory-based clustering
	// policies (paper §3.2: "the Ingestion service needs to keep track
	// of the owner of that vertex's edges"). Must be safe for concurrent
	// use and agree with how the graph was actually declustered. Nil
	// selects the modulo mapping.
	OwnerOf func(v graph.VertexID) cluster.NodeID
	// ActiveNodes restricts the run to a subset of the fabric's nodes —
	// the failover path's surviving back-ends. Must be ascending,
	// duplicate-free, and identical for the whole run; nil means every
	// node. Excluded nodes are never sent to, received from, or counted
	// in collectives, so a query completes with dead peers on the fabric.
	ActiveNodes []cluster.NodeID
	// ReplicasOf returns a vertex's ordered replica list (primary first,
	// matching ingest.ReplicaPolicy.Replicas); fringe routing walks it
	// and reads from the first live replica. ReplicasOf[0] must agree
	// with OwnerOf. Nil means unreplicated: a vertex whose owner is
	// excluded is unreachable.
	ReplicasOf func(v graph.VertexID) []cluster.NodeID
	// AllowPartial degrades a shard with no live replica to best-effort:
	// instead of failing with ErrNoLiveReplica, unreachable fringe
	// vertices are dropped, counted in FringeDropped, and the result
	// reports Coverage < 1. Found/PathLength remain exact when Found is
	// true; a "not found" is only trusted for the covered fraction.
	AllowPartial bool
}

// BFSConfig parameterizes one parallel out-of-core BFS.
type BFSConfig struct {
	Source graph.VertexID
	Dest   graph.VertexID
	Routing
	// Pipelined selects Algorithm 2 (threshold-chunked, overlapped
	// communication) instead of Algorithm 1.
	Pipelined bool
	// Threshold is Algorithm 2's chunk size; <= 0 means 1024.
	Threshold int
	// MaxLevels aborts runaway searches; <= 0 means 64 (far beyond any
	// small-world diameter).
	MaxLevels int
	// Filter restricts expansion to neighbours whose per-vertex metadata
	// passes a Listing 3.1 filter — semantic traversal when vertex types
	// are stored as metadata (e.g. FilterEqual with ref = a type id walks
	// only vertices of that type). The zero value means no filtering.
	Filter MetaFilter
	// ReturnPath asks the level-synchronous BFS to also reconstruct the
	// shortest path (BFSResult.Path). Costs (vertex, parent) pairs on the
	// wire and per-vertex (not batched) expansion; unsupported by the
	// pipelined variant.
	ReturnPath bool
	// Workers is the number of goroutines each back-end node uses to
	// expand a level's fringe concurrently: workers pull vertices from a
	// shared queue, retrieve adjacency in parallel, and mark discoveries
	// in one lock-free visited set. 0 means GOMAXPROCS; 1 restores the
	// paper's serial per-node expansion. Values above 1 are ignored for
	// ReturnPath queries and batch-scan backends (StreamDB), which fall
	// back to serial expansion.
	Workers int
	// NewVisited constructs the per-node visited structure; nil means
	// in-memory. It is called once per node.
	NewVisited func(node cluster.NodeID) (Visited, error)
}

// chunk is the exchange discipline as the traversal kernel reads it: 0
// for Algorithm 1, Algorithm 2's chunk size otherwise.
func (c *BFSConfig) chunk() int {
	switch {
	case !c.Pipelined:
		return 0
	case c.Threshold <= 0:
		return 1024
	}
	return c.Threshold
}

func (c *BFSConfig) maxLevels() int32 {
	if c.MaxLevels <= 0 {
		return 64
	}
	return int32(c.MaxLevels)
}

// BFSResult is the combined outcome of a parallel BFS.
type BFSResult struct {
	// Found reports whether Dest was reached.
	Found bool
	// PathLength is the BFS level at which Dest was found (the paper's
	// levcnt); -1 if not found.
	PathLength int32
	// EdgesTraversed is the total number of adjacency entries scanned
	// across all nodes (the numerator of Figs 5.7 and 5.9).
	EdgesTraversed int64
	// VerticesVisited counts marked vertices across all nodes.
	VerticesVisited int64
	// FringeSent counts fringe vertices shipped to other nodes — the
	// communication volume a good clustering policy minimizes (§3.2).
	FringeSent int64
	// Path is the reconstructed shortest path source..dest when
	// BFSConfig.ReturnPath was set and the destination was found.
	Path []graph.VertexID
	// Levels is the number of BFS levels executed.
	Levels int32
	// LevelStats is the per-level breakdown: fringe size (summed across
	// nodes) and expansion/total latency (max across nodes, since the
	// level barrier makes the slowest node the level's wall-clock).
	LevelStats []LevelStat
	// ReplicaReads counts fringe vertices served by a non-primary
	// replica because the primary was excluded from the run.
	ReplicaReads int64
	// FringeDropped counts fringe vertices with no live replica, dropped
	// under AllowPartial (or just before the run failed without it).
	FringeDropped int64
	// Coverage is the explored fraction of the reachable set:
	// visited/(visited+dropped). 1 for a complete search.
	Coverage float64
	// Failover is filled by FailoverBFS with its retry accounting; plain
	// ParallelBFS leaves it nil.
	Failover *FailoverStats
	// Generation is the combined graph generation the query was pinned to
	// at admission (graphdb.GraphsGeneration) — the committed graph state
	// this result reflects. Stamped by the resident Engine; zero for
	// direct ParallelBFS calls.
	Generation uint64 `json:"generation,omitempty"`
}

// LevelStat describes one BFS level; BFSResult.LevelStats carries one per
// level, and the benchmark/ module's per-level trace reads them.
type LevelStat struct {
	Level    int32 `json:"level"`
	Fringe   int64 `json:"fringe"`
	ExpandNs int64 `json:"expand_ns"`
	TotalNs  int64 `json:"total_ns"`
	// ReplicaReads and Dropped carry the per-level failover accounting;
	// both stay zero on a healthy full-roster run.
	ReplicaReads int64 `json:"replica_reads,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
}

// ParallelBFS runs one BFS over the fabric: node i serves partition i
// through dbs[i]. It blocks until every node finishes and returns the
// combined result. The dbs slice length must equal the fabric size. Any
// number of ParallelBFS (or other query) calls may share one fabric
// concurrently; cancelling ctx aborts the search with ctx.Err().
//
// BFS is a front-end of the traversal kernel (kernel.go). Its own parts
// are the destination test, the MaxLevels overrun, and — for ReturnPath —
// the parent pairs and the backward walk over them.
func ParallelBFS(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, cfg BFSConfig) (BFSResult, error) {
	if cfg.Pipelined && cfg.ReturnPath {
		return BFSResult{PathLength: -1}, fmt.Errorf("query: ReturnPath requires the level-synchronous BFS")
	}
	tr := traversal{BFSConfig: cfg, name: "bfs", hasDest: true, met: qm()}
	// Nodes agree on Found/PathLength (collectively decided); the first
	// roster node drives the path walk and alone holds the path.
	var first BFSResult
	res, err := runTraversal(ctx, f, dbs, &tr, func(k *kernel) error {
		r, err := bfsNode(k)
		if k.self == k.rst.first() {
			first = r
		}
		return err
	})
	if err != nil {
		return BFSResult{PathLength: -1, Levels: res.Levels}, err
	}
	res.Found, res.PathLength, res.Path = first.Found, first.PathLength, first.Path
	return res, nil
}

// bfsNode is one node's share of the search: step the kernel until the
// destination is found, the graph is exhausted, or MaxLevels is passed.
func bfsNode(k *kernel) (BFSResult, error) {
	cfg, res := &k.tr.BFSConfig, BFSResult{PathLength: -1}
	if cfg.Source == cfg.Dest {
		res.Found, res.PathLength = true, 0
		if cfg.ReturnPath {
			res.Path = []graph.VertexID{cfg.Source}
		}
		return res, nil
	}
	for k.level < cfg.maxLevels() {
		more, err := k.step()
		if err != nil {
			return res, err
		}
		if k.found {
			res.Found, res.PathLength = true, k.level
			if cfg.ReturnPath {
				res.Path, err = walkParents(k)
			}
			return res, err
		}
		if !more {
			return res, nil
		}
	}
	return res, fmt.Errorf("query: BFS exceeded %d levels", cfg.maxLevels())
}
