package query

import (
	"context"
	"fmt"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// Connected-component analysis: the size and radius (from the seed) of
// the component containing a vertex — one of the classic out-of-core
// graph analyses the paper cites as motivation (chapter 2 lists
// connected components among the external-memory graph algorithms MSSG
// is meant to host). It expands the k-hop machinery until the frontier
// dries up.

// ComponentResult describes the component of a seed vertex.
type ComponentResult struct {
	// Size is the number of vertices in the component (including the
	// seed).
	Size int64
	// Eccentricity is the number of BFS levels needed to exhaust the
	// component from the seed (the seed's graph eccentricity).
	Eccentricity int32
	// EdgesTraversed counts adjacency entries scanned.
	EdgesTraversed int64
}

// ComponentMaxLevels bounds the sweep; small-world components exhaust in
// a handful of levels, and 1024 levels covers even path-shaped graphs of
// experiment scale.
const ComponentMaxLevels = 1024

// ParallelComponent measures the connected component containing seed.
func ParallelComponent(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, seed graph.VertexID, ownership Ownership) (ComponentResult, error) {
	kh, err := ParallelKHop(ctx, f, dbs, KHopConfig{Source: seed, K: ComponentMaxLevels, Ownership: ownership})
	if err != nil {
		return ComponentResult{}, err
	}
	return ComponentOf(kh), nil
}

// ComponentOf converts a component sweep — a k-hop from the seed bounded
// by ComponentMaxLevels — into the component's size and eccentricity.
// Callers that route the sweep themselves (core.Engine.KHop applies the
// placement policy) run it and convert here.
func ComponentOf(kh KHopResult) ComponentResult {
	res := ComponentResult{
		Size:           kh.Total + 1, // + the seed itself
		EdgesTraversed: kh.EdgesTraversed,
	}
	for lvl, n := range kh.PerLevel {
		if n > 0 {
			res.Eccentricity = int32(lvl) + 1
		}
	}
	return res
}

// componentAnalysis adapts ParallelComponent to the registry.
type componentAnalysis struct{}

func (componentAnalysis) Name() string { return "component" }

func (componentAnalysis) Describe() string {
	return "size and eccentricity of the connected component containing a vertex (params: source, broadcast)"
}

func (componentAnalysis) Run(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, params map[string]string) (any, error) {
	src, err := requiredVertex(params, "source")
	if err != nil {
		return nil, err
	}
	ownership := KnownMapping
	if params["broadcast"] == "true" {
		ownership = BroadcastFringe
	}
	res, err := ParallelComponent(ctx, f, dbs, src, ownership)
	if err != nil {
		return nil, fmt.Errorf("query: component analysis: %w", err)
	}
	return res, nil
}

func init() {
	RegisterAnalysis(componentAnalysis{})
}
