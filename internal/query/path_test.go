package query

import (
	"context"
	"reflect"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
)

func TestReturnPathChain(t *testing.T) {
	// On a chain the shortest path is unique: 0,1,2,...,d.
	edges := chainEdges(12)
	f := cluster.NewInProc(4, 0)
	defer f.Close()
	dbs := partition(t, edges, 4)
	for d := 1; d <= 12; d++ {
		res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: graph.VertexID(d), ReturnPath: true,
		})
		if err != nil {
			t.Fatalf("BFS 0->%d: %v", d, err)
		}
		want := make([]graph.VertexID, d+1)
		for i := range want {
			want[i] = graph.VertexID(i)
		}
		if !reflect.DeepEqual(res.Path, want) {
			t.Fatalf("path 0->%d = %v, want %v", d, res.Path, want)
		}
	}
}

// validatePath checks a returned path is a real path in the graph with
// the claimed length.
func validatePath(t *testing.T, edges []graph.Edge, path []graph.VertexID,
	src, dst graph.VertexID, wantLen int32) {
	t.Helper()
	if int32(len(path))-1 != wantLen {
		t.Fatalf("path %v has %d hops, PathLength says %d", path, len(path)-1, wantLen)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path %v does not run %d..%d", path, src, dst)
	}
	adj := make(map[graph.Edge]bool)
	for _, e := range edges {
		adj[e] = true
		adj[e.Reverse()] = true
	}
	for i := 0; i+1 < len(path); i++ {
		if !adj[graph.Edge{Src: path[i], Dst: path[i+1]}] {
			t.Fatalf("path %v uses non-edge %d->%d", path, path[i], path[i+1])
		}
	}
}

func TestReturnPathRandomGraph(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "p", Vertices: 600, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	dist := refDist(edges, 2)
	f := cluster.NewInProc(5, 0)
	defer f.Close()
	dbs := partition(t, edges, 5)
	for dest := graph.VertexID(3); dest < 600; dest += 53 {
		want, reachable := dist[dest]
		res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 2, Dest: dest, ReturnPath: true})
		if err != nil {
			t.Fatalf("BFS 2->%d: %v", dest, err)
		}
		if res.Found != reachable {
			t.Fatalf("2->%d found=%v want %v", dest, res.Found, reachable)
		}
		if !reachable {
			if res.Path != nil {
				t.Fatalf("unreachable query returned path %v", res.Path)
			}
			continue
		}
		if res.PathLength != want {
			t.Fatalf("2->%d length %d, want %d", dest, res.PathLength, want)
		}
		validatePath(t, edges, res.Path, 2, dest, want)
	}
}

func TestReturnPathBroadcastMode(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "pb", Vertices: 200, M: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dist := refDist(edges, 0)
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	dbs := scatter(t, edges, 3)
	for _, dest := range []graph.VertexID{50, 120, 199} {
		res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: dest, ReturnPath: true, Routing: Routing{Ownership: BroadcastFringe},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.PathLength != dist[dest] {
			t.Fatalf("0->%d = (%v,%d), want (true,%d)", dest, res.Found, res.PathLength, dist[dest])
		}
		validatePath(t, edges, res.Path, 0, dest, res.PathLength)
	}
}

func TestReturnPathSelf(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 1, Dest: 1, ReturnPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Path, []graph.VertexID{1}) {
		t.Fatalf("self path = %v", res.Path)
	}
}

func TestReturnPathRejectedForPipelined(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	if _, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
		Source: 0, Dest: 3, ReturnPath: true, Pipelined: true,
	}); err == nil {
		t.Fatal("ReturnPath with Pipelined accepted")
	}
}

func TestPathMsgCodec(t *testing.T) {
	for _, kind := range []byte{pkLookup, pkReply, pkMissing, pkDone} {
		k, v, err := decodePathMsg(encodePathMsg(kind, 42))
		if err != nil || k != kind || v != 42 {
			t.Fatalf("round trip kind %d: %d %d %v", kind, k, v, err)
		}
	}
	if _, _, err := decodePathMsg([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestChunkPairsCodec(t *testing.T) {
	pairs := []graph.Edge{{Src: 1, Dst: 2}, {Src: 99, Dst: 0}}
	got, err := decodeChunkPairs(encodeChunkPairs(pairs))
	if err != nil || !reflect.DeepEqual(got, pairs) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := decodeChunkPairs([]byte{fkChunkP, 1}); err == nil {
		t.Fatal("misaligned pairs accepted")
	}
}
