package query

import (
	"context"
	"slices"
	"sync"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/streamdb"
)

// Read order: every read path of the kernel reads a node's level in
// ascending vertex order, which is block order on grDB. Each node's Graph
// is wrapped in a recorder of its adjacency reads; under known ownership
// on a full roster a vertex is read once, by its owner, at level
// dist(source, v)+1, so the reference distances tell which level each
// read belongs to.

// readCall is one adjacency call: a single vertex, or the fringe a batch
// call was given.
type readCall struct {
	ids   []graph.VertexID
	batch bool
}

// readLog is one node's adjacency calls in the order they were made.
type readLog struct {
	mu    sync.Mutex
	calls []readCall
}

func (l *readLog) add(c readCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// recordingGraph exposes only the Graph interface, so the kernel reads it
// vertex by vertex (graphdb.AdjacencyBatch falls back to per-vertex reads).
type recordingGraph struct {
	graphdb.Graph
	log *readLog
}

func (g recordingGraph) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	g.log.add(readCall{ids: []graph.VertexID{v}})
	return g.Graph.AdjacencyUsingMetadata(v, out, md, op)
}

// recordingBatchGraph also forwards the BatchGraph fast path.
type recordingBatchGraph struct{ recordingGraph }

func (g recordingBatchGraph) AdjacencyBatch(fringe []graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	g.log.add(readCall{ids: slices.Clone(fringe), batch: true})
	return graphdb.AdjacencyBatch(g.Graph, fringe, out, md, op)
}

func TestKernelReadsLevelsInVertexOrder(t *testing.T) {
	const p = 3
	edges, err := gen.Generate(gen.Config{Name: "order", Vertices: 600, M: 2, HubFraction: 0.15, Seed: 3907})
	if err != nil {
		t.Fatal(err)
	}
	const src = 5
	dist := refDist(edges, src)
	cases := []struct {
		name  string
		cfg   BFSConfig
		batch bool // back the nodes with streamdb, a BatchGraph
		run   int  // reads ascend within runs of this many level vertices; 0 = the whole level
	}{
		{name: "serial-batch", cfg: BFSConfig{Workers: 1}},
		{name: "return-path", cfg: BFSConfig{Workers: 1, ReturnPath: true}},
		{name: "pipelined", cfg: BFSConfig{Workers: 1, Pipelined: true, Threshold: 8}},
		{name: "workers", cfg: BFSConfig{Workers: 4}, run: expandChunk},
		{name: "workers-pipelined", cfg: BFSConfig{Workers: 4, Pipelined: true, Threshold: 8}, run: expandChunk},
		{name: "batch-graph", cfg: BFSConfig{Workers: 1}, batch: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inner []graphdb.Graph
			if tc.batch {
				inner = make([]graphdb.Graph, p)
				for i := range inner {
					d, err := streamdb.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { d.Close() })
					inner[i] = d
				}
				for _, e := range edges {
					for _, d := range []graph.Edge{e, e.Reverse()} {
						if err := inner[cluster.Owner(int64(d.Src), p)].StoreEdges([]graph.Edge{d}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, d := range inner {
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				inner = partition(t, edges, p)
			}
			logs := make([]*readLog, p)
			dbs := make([]graphdb.Graph, p)
			for i := range dbs {
				logs[i] = &readLog{}
				rg := recordingGraph{Graph: inner[i], log: logs[i]}
				dbs[i] = rg
				if tc.batch {
					dbs[i] = recordingBatchGraph{rg}
				}
			}
			f := cluster.NewInProc(p, 0)
			defer f.Close()
			cfg := tc.cfg
			cfg.Source, cfg.Dest = src, 4242 // absent: the search walks every level
			if _, err := ParallelBFS(context.Background(), f, dbs, cfg); err != nil {
				t.Fatal(err)
			}
			reads := 0
			for n, l := range logs {
				reads += checkReadOrder(t, cluster.NodeID(n), l.calls, dist, tc.batch, tc.run)
			}
			if reads != len(dist) {
				t.Fatalf("%d adjacency reads recorded, %d reachable vertices", reads, len(dist))
			}
		})
	}
}

// checkReadOrder checks one node's reads: levels in order, each batch a
// whole ascending level, and per-vertex reads ascending within each run
// of run consecutive vertices of the level's sorted set (the whole level
// when run is 0). It returns the number of vertices read.
func checkReadOrder(t *testing.T, node cluster.NodeID, calls []readCall, dist map[graph.VertexID]int32, batch bool, run int) int {
	t.Helper()
	var seq []graph.VertexID
	for _, c := range calls {
		if c.batch != batch {
			t.Fatalf("node %d: batch call %v, want %v", node, c.batch, batch)
		}
		if batch {
			if !slices.IsSorted(c.ids) {
				t.Fatalf("node %d: batch fringe not in vertex order: %v", node, c.ids)
			}
			for _, v := range c.ids {
				if dist[v] != dist[c.ids[0]] {
					t.Fatalf("node %d: batch mixes levels %d and %d", node, dist[c.ids[0]]+1, dist[v]+1)
				}
			}
		}
		seq = append(seq, c.ids...)
	}
	levels := make(map[int32][]graph.VertexID)
	for i, v := range seq {
		if i > 0 && dist[v] < dist[seq[i-1]] {
			t.Fatalf("node %d: read %d (level %d) after %d (level %d)", node, v, dist[v]+1, seq[i-1], dist[seq[i-1]]+1)
		}
		levels[dist[v]] = append(levels[dist[v]], v)
	}
	for d, got := range levels {
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		size := run
		if size == 0 {
			size = len(sorted)
		}
		// Each run's reads, in the order they were made, must ascend.
		last := make(map[int]graph.VertexID)
		for _, v := range got {
			r, _ := slices.BinarySearch(sorted, v)
			r /= size
			if prev, ok := last[r]; ok && v <= prev {
				t.Fatalf("node %d level %d: read %d after %d in one run of %d: %v", node, d+1, v, prev, size, got)
			}
			last[r] = v
		}
	}
	return len(seq)
}
