package query

import (
	"context"
	"fmt"
	"strconv"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// K-hop neighbourhood analysis: how many vertices lie within k hops of a
// source? This is the other relationship-analysis primitive the paper's
// introduction motivates ("queries which analyze long paths often must
// access a significant portion of the graph data") — it measures exactly
// that portion. It reuses the level-synchronous machinery of Algorithm 1
// with no destination cut-off.

// KHopConfig parameterizes a k-hop neighbourhood count.
type KHopConfig struct {
	Source graph.VertexID
	// K is the number of BFS levels to expand.
	K int
	Routing
}

// KHopResult reports the neighbourhood profile.
type KHopResult struct {
	// PerLevel[i] is the number of vertices first reached at level i+1.
	PerLevel []int64
	// Total is the number of distinct vertices within K hops (excluding
	// the source).
	Total int64
	// EdgesTraversed counts adjacency entries scanned.
	EdgesTraversed int64
	// ReplicaReads counts fringe vertices served by a non-primary
	// replica; Dropped counts vertices with no live replica (only
	// possible on a partial roster under AllowPartial).
	ReplicaReads int64
	Dropped      int64
	// Coverage is Total/(Total+Dropped); 1 for a complete count.
	Coverage float64
	// Failover is filled by FailoverKHop with its retry accounting; plain
	// ParallelKHop leaves it nil.
	Failover *FailoverStats
}

// ParallelKHop runs the analysis across the fabric under its own leased
// channel namespace; ctx cancellation aborts all nodes.
//
// k-hop is a front-end of the traversal kernel (kernel.go): Algorithm 1
// with no destination, bounded at K levels. Its own part is the per-level
// count. On failure the partial result keeps the levels every counted
// node completed, which is what the failover loop reports as degraded.
func ParallelKHop(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, cfg KHopConfig) (KHopResult, error) {
	if cfg.K < 1 {
		return KHopResult{}, fmt.Errorf("query: k-hop needs K >= 1, got %d", cfg.K)
	}
	tr := traversal{name: "khop", BFSConfig: BFSConfig{
		Source: cfg.Source, Routing: cfg.Routing, Workers: 1,
	}}
	perNode := make([][]int64, f.Nodes())
	tot, err := runTraversal(ctx, f, dbs, &tr, func(k *kernel) error {
		for more := true; more && int(k.level) < cfg.K; {
			var err error
			if more, err = k.step(); err != nil {
				return err
			}
			perNode[k.self] = append(perNode[k.self], khopCount(k))
		}
		return nil
	})
	res := KHopResult{
		PerLevel:       make([]int64, tot.Levels, cfg.K),
		EdgesTraversed: tot.EdgesTraversed,
		ReplicaReads:   tot.ReplicaReads,
		Dropped:        tot.FringeDropped,
		Coverage:       1,
	}
	for _, counts := range perNode {
		for lvl, n := range counts {
			res.PerLevel[lvl] += n
			res.Total += n
		}
	}
	if res.Dropped > 0 {
		res.Coverage = float64(res.Total) / float64(res.Total+res.Dropped)
	}
	return res, err
}

// khopCount is this node's share of the vertices first reached at the
// level just stepped. Under known-mapping ownership each vertex lands in
// exactly one node's next fringe (kept locally, or absorbed by the node
// that serves it). Under broadcast ownership every node holds every
// vertex, so only the counting authority's tally enters the total (on a
// full roster the authority is the GID % p owner).
func khopCount(k *kernel) int64 {
	if k.tr.Ownership == KnownMapping {
		return int64(len(k.fringe))
	}
	var n int64
	for _, u := range k.fringe {
		if k.rst.authority(u) == k.self {
			n++
		}
	}
	return n
}

// khopAnalysis adapts the executor's k-hop to the Query Service registry.
type khopAnalysis struct{}

func (khopAnalysis) Name() string { return "khop" }

func (khopAnalysis) Describe() string {
	return "count vertices within k hops of a source (params: source, k, broadcast)"
}

func (khopAnalysis) Run(ctx context.Context, x Executor, params map[string]string) (any, error) {
	src, err := requiredVertex(params, "source")
	if err != nil {
		return nil, err
	}
	ks, ok := params["k"]
	if !ok {
		return nil, fmt.Errorf("query: missing required param %q", "k")
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return nil, fmt.Errorf("query: bad k %q: %w", ks, err)
	}
	cfg := KHopConfig{Source: src, K: k}
	if params["broadcast"] == "true" {
		cfg.Ownership = BroadcastFringe
	}
	return x.KHopCtx(ctx, cfg)
}

// statsAnalysis reports aggregate GraphDB work counters per node — the
// framework-level observability hook.
type statsAnalysis struct{}

func (statsAnalysis) Name() string { return "dbstats" }

func (statsAnalysis) Describe() string {
	return "aggregate GraphDB statistics across back-end nodes (no params)"
}

// DBStats is the dbstats analysis result.
type DBStats struct {
	PerNode []graphdb.Stats
	Total   graphdb.Stats
}

func (statsAnalysis) Run(ctx context.Context, x Executor, params map[string]string) (any, error) {
	dbs := x.Databases()
	out := DBStats{PerNode: make([]graphdb.Stats, len(dbs))}
	for i, db := range dbs {
		s := db.Stats()
		out.PerNode[i] = s
		out.Total.EdgesStored += s.EdgesStored
		out.Total.AdjacencyCalls += s.AdjacencyCalls
		out.Total.NeighborsReturned += s.NeighborsReturned
	}
	return out, nil
}

func init() {
	RegisterAnalysis(khopAnalysis{})
	RegisterAnalysis(statsAnalysis{})
}
