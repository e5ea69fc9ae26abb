package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// Analysis is one registered data-analysis technique. The paper's Query
// Service keeps a registry of implemented analyses that clients can list
// and invoke by name (§3.3); BFS relationship analysis is the built-in
// one, and applications may register their own.
type Analysis interface {
	// Name is the registry key.
	Name() string
	// Describe is a one-line human description.
	Describe() string
	// Run executes the analysis through x; params are analysis-specific
	// strings (a query-language stand-in). Cancelling ctx aborts the
	// analysis with ctx.Err().
	Run(ctx context.Context, x Executor, params map[string]string) (any, error)
}

// Executor runs traversals on one cluster: the single place that decides
// a query's routing and failover. *core.Engine implements it with its
// placement policy applied (owner directory or broadcast, replicas,
// member roster, failover retries); registry analyses and the resident
// Engine run every traversal through one.
type Executor interface {
	BFSCtx(ctx context.Context, cfg BFSConfig) (BFSResult, error)
	KHopCtx(ctx context.Context, cfg KHopConfig) (KHopResult, error)
	// Epoch is the committed placement epoch (0 on a static cluster).
	Epoch() uint64
	// Databases are the per-node back-ends, indexed by node.
	Databases() []graphdb.Graph
}

// direct is the Executor of a bare fabric and its databases: it runs the
// kernel with the caller's routing as given, at epoch 0.
type direct struct {
	f   cluster.Fabric
	dbs []graphdb.Graph
}

func (d direct) BFSCtx(ctx context.Context, cfg BFSConfig) (BFSResult, error) {
	return ParallelBFS(ctx, d.f, d.dbs, cfg)
}

func (d direct) KHopCtx(ctx context.Context, cfg KHopConfig) (KHopResult, error) {
	return ParallelKHop(ctx, d.f, d.dbs, cfg)
}

func (direct) Epoch() uint64                { return 0 }
func (d direct) Databases() []graphdb.Graph { return d.dbs }

var (
	analysesMu sync.RWMutex
	analyses   = make(map[string]Analysis)
)

// RegisterAnalysis adds an analysis to the Query Service registry.
func RegisterAnalysis(a Analysis) {
	analysesMu.Lock()
	defer analysesMu.Unlock()
	if _, dup := analyses[a.Name()]; dup {
		panic(fmt.Sprintf("query: analysis %q registered twice", a.Name()))
	}
	analyses[a.Name()] = a
}

// LookupAnalysis finds a registered analysis.
func LookupAnalysis(name string) (Analysis, bool) {
	analysesMu.RLock()
	defer analysesMu.RUnlock()
	a, ok := analyses[name]
	return a, ok
}

// Analyses lists registered analysis names, sorted.
func Analyses() []string {
	analysesMu.RLock()
	defer analysesMu.RUnlock()
	names := make([]string, 0, len(analyses))
	for n := range analyses {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bfsAnalysis adapts the executor's BFS to the Analysis registry.
type bfsAnalysis struct{}

func (bfsAnalysis) Name() string { return "bfs" }

func (bfsAnalysis) Describe() string {
	return "parallel out-of-core breadth-first search between two vertices (params: source, dest, pipelined, broadcast, threshold, workers)"
}

func (bfsAnalysis) Run(ctx context.Context, x Executor, params map[string]string) (any, error) {
	cfg := BFSConfig{}
	src, err := requiredVertex(params, "source")
	if err != nil {
		return nil, err
	}
	dst, err := requiredVertex(params, "dest")
	if err != nil {
		return nil, err
	}
	cfg.Source, cfg.Dest = src, dst
	if params["pipelined"] == "true" {
		cfg.Pipelined = true
	}
	if params["broadcast"] == "true" {
		cfg.Ownership = BroadcastFringe
	}
	if t := params["threshold"]; t != "" {
		n, err := strconv.Atoi(t)
		if err != nil {
			return nil, fmt.Errorf("query: bad threshold %q: %w", t, err)
		}
		cfg.Threshold = n
	}
	if w := params["workers"]; w != "" {
		n, err := strconv.Atoi(w)
		if err != nil {
			return nil, fmt.Errorf("query: bad workers %q: %w", w, err)
		}
		cfg.Workers = n
	}
	return x.BFSCtx(ctx, cfg)
}

func requiredVertex(params map[string]string, key string) (graph.VertexID, error) {
	s, ok := params[key]
	if !ok {
		return 0, fmt.Errorf("query: missing required param %q", key)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad %s %q: %w", key, s, err)
	}
	v := graph.VertexID(n)
	if !v.Valid() {
		return 0, fmt.Errorf("query: %s %d outside vertex range", key, n)
	}
	return v, nil
}

func init() {
	RegisterAnalysis(bfsAnalysis{})
}
