// Package mssg is the public API of the MSSG framework — a reproduction
// of "MSSG: A Framework for Massive-Scale Semantic Graphs" (Hartley,
// The Ohio State University / IEEE CLUSTER 2006).
//
// MSSG stores, retrieves and analyzes large scale-free semantic graphs
// out-of-core on a (simulated) cluster. An Engine bundles the paper's
// three services: the Ingestion Service streams edges in and declusters
// them across back-end nodes; the GraphDB Service stores each node's
// partition in one of six pluggable backends (including grDB, the paper's
// novel multi-level graph database); and the Query Service runs parallel
// out-of-core analyses, with breadth-first search built in.
//
// Quick start:
//
//	eng, err := mssg.New(mssg.Config{
//		Backends: 4,          // back-end storage nodes
//		Backend:  "grdb",     // the paper's graph database
//		Dir:      "/tmp/db",  // working directory
//		Ingest:   mssg.IngestConfig{AddReverse: true},
//	})
//	if err != nil { ... }
//	defer eng.Close()
//
//	_, err = eng.IngestEdges([]mssg.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
//	res, err := eng.BFS(mssg.BFSConfig{Source: 0, Dest: 2})
//	fmt.Println(res.Found, res.PathLength) // true 2
//
// Synthetic scale-free workloads matching the paper's Table 5.1 graphs
// are available through PubMedS, PubMedL and Syn2B.
package mssg

import (
	"io"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all" // register the six GraphDB backends
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// Core graph vocabulary.
type (
	// VertexID is a 61-bit global vertex identifier.
	VertexID = graph.VertexID
	// Edge is a directed adjacency record.
	Edge = graph.Edge
	// AdjList is a reusable neighbour list container.
	AdjList = graph.AdjList
	// Ontology is a semantic-graph blueprint (vertex/edge types and
	// their allowed connections).
	Ontology = graph.Ontology
	// TypeID identifies a vertex or edge type within an Ontology.
	TypeID = graph.TypeID
	// TypedEdge is an edge with semantic type annotations.
	TypedEdge = graph.TypedEdge
)

// Engine configuration and services.
type (
	// Config parameterizes an Engine; see core.Config field docs.
	Config = core.Config
	// Engine is a running MSSG instance.
	Engine = core.Engine
	// IngestConfig tunes the Ingestion Service.
	IngestConfig = ingest.Config
	// DBOptions tunes the selected GraphDB backend.
	DBOptions = graphdb.Options
	// LevelSpec describes one grDB storage level (for ablations).
	LevelSpec = graphdb.LevelSpec
	// BFSConfig parameterizes a parallel out-of-core BFS.
	BFSConfig = query.BFSConfig
	// BFSResult is the outcome of a BFS.
	BFSResult = query.BFSResult
	// MetaFilter restricts traversal by per-vertex metadata (semantic
	// typed BFS).
	MetaFilter = query.MetaFilter
	// KHopConfig parameterizes a k-hop neighbourhood count.
	KHopConfig = query.KHopConfig
	// KHopResult is the outcome of a k-hop analysis.
	KHopResult = query.KHopResult
	// QueryEngineConfig tunes the resident concurrent query scheduler.
	QueryEngineConfig = query.EngineConfig
	// QueryEngine is the resident scheduler: admission-controlled
	// concurrent queries over one engine's fabric and databases.
	QueryEngine = query.Engine
	// Query is one admitted query's ticket (status, result, latency).
	Query = query.Query
	// GraphStats summarizes a graph as in the paper's Table 5.1.
	GraphStats = gen.Stats
	// GenConfig parameterizes the synthetic scale-free generator.
	GenConfig = gen.Config
	// NodeID numbers cluster nodes.
	NodeID = cluster.NodeID
)

// Fabric kinds.
const (
	// InProc runs cluster nodes as goroutines with in-process mailboxes.
	InProc = core.InProc
	// TCP runs cluster nodes over loopback TCP sockets.
	TCP = core.TCP
)

// BFS fringe-routing modes (paper §4.2).
const (
	// KnownMapping routes fringe vertices to their owners (GID % p).
	KnownMapping = query.KnownMapping
	// BroadcastFringe broadcasts fringe vertices to all nodes.
	BroadcastFringe = query.BroadcastFringe
)

// Traversal metadata filters (Listing 3.1 operations; zero value = no
// filtering).
const (
	// FilterNone disables metadata filtering.
	FilterNone = query.FilterNone
	// FilterEqual keeps neighbours whose metadata equals the reference.
	FilterEqual = query.FilterEqual
	// FilterNotEqual keeps neighbours whose metadata differs.
	FilterNotEqual = query.FilterNotEqual
	// FilterGreater keeps neighbours whose metadata is greater.
	FilterGreater = query.FilterGreater
	// FilterLess keeps neighbours whose metadata is less.
	FilterLess = query.FilterLess
)

// KHop runs the k-hop neighbourhood analysis on an engine, routed by the
// engine's declustering policy like Engine.BFS.
func KHop(e *Engine, cfg KHopConfig) (KHopResult, error) {
	return e.KHop(cfg)
}

// ComponentResult describes a connected component (see Component).
type ComponentResult = query.ComponentResult

// Component measures the connected component containing seed, with the
// same policy-based routing as KHop.
func Component(e *Engine, seed VertexID) (ComponentResult, error) {
	kh, err := e.KHop(KHopConfig{Source: seed, K: query.ComponentMaxLevels})
	if err != nil {
		return ComponentResult{}, err
	}
	return query.ComponentOf(kh), nil
}

// NewQueryEngine builds a resident concurrent query scheduler over an
// engine's fabric and databases; see core.Engine.NewQueryEngine.
func NewQueryEngine(e *Engine, cfg QueryEngineConfig) (*QueryEngine, error) {
	return e.NewQueryEngine(cfg)
}

// IngestPolicy is a pluggable clustering/declustering policy.
type IngestPolicy = ingest.Policy

// GreedyCluster is the summary-based affinity clustering policy of paper
// §3.2; share one instance across all front-ends via IngestConfig.Policy.
type GreedyCluster = ingest.GreedyCluster

// NewGreedyCluster returns a greedy clustering policy with the given
// balance slack (edges a backend may exceed the lightest one by before
// affinity is overridden; 0 = default).
func NewGreedyCluster(slack int64) *GreedyCluster { return ingest.NewGreedyCluster(slack) }

// New creates an Engine: a cluster fabric plus one GraphDB instance per
// back-end node.
func New(cfg Config) (*Engine, error) { return core.New(cfg) }

// NewOntology returns an empty semantic ontology.
func NewOntology() *Ontology { return graph.NewOntology() }

// Backends lists the registered GraphDB backend names.
func Backends() []string { return graphdb.Backends() }

// Analyses lists the registered Query Service analyses.
func Analyses() []string { return query.Analyses() }

// Synthetic workloads matching the paper's Table 5.1 graphs, at a chosen
// scale (1.0 = the paper's vertex counts).

// PubMedS returns the PubMed-S analogue generator configuration.
func PubMedS(scale float64) GenConfig { return gen.PubMedS(scale) }

// PubMedL returns the PubMed-L analogue generator configuration.
func PubMedL(scale float64) GenConfig { return gen.PubMedL(scale) }

// Syn2B returns the Syn-2B analogue generator configuration.
func Syn2B(scale float64) GenConfig { return gen.Syn2B(scale) }

// Generate materializes a synthetic graph's edge list.
func Generate(cfg GenConfig) ([]Edge, error) { return gen.Generate(cfg) }

// ComputeStats computes Table 5.1-style statistics for an edge list.
func ComputeStats(name string, edges []Edge, numVertices int64) (GraphStats, error) {
	return gen.ComputeStats(name, &edgeSliceReader{edges: edges}, numVertices)
}

type edgeSliceReader struct {
	edges []Edge
	pos   int
}

func (r *edgeSliceReader) ReadEdge() (Edge, error) {
	if r.pos >= len(r.edges) {
		return Edge{}, errEOF
	}
	e := r.edges[r.pos]
	r.pos++
	return e, nil
}

var errEOF = io.EOF
