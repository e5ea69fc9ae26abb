package query

import (
	"context"
	"reflect"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
)

// partition loads an undirected view of edges into p hashdb instances
// with the GID % p mapping.
func partition(t *testing.T, edges []graph.Edge, p int) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	for _, e := range edges {
		for _, d := range []graph.Edge{e, e.Reverse()} {
			owner := cluster.Owner(int64(d.Src), p)
			if err := dbs[owner].StoreEdges([]graph.Edge{d}); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
		}
	}
	return dbs
}

// replicate loads the full undirected edge set into every instance
// (edge-granularity-like storage needing broadcast).
func scatter(t *testing.T, edges []graph.Edge, p int) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	// Round-robin each directed record — adjacency lists split over all
	// nodes.
	i := 0
	for _, e := range edges {
		for _, d := range []graph.Edge{e, e.Reverse()} {
			if err := dbs[i%p].StoreEdges([]graph.Edge{d}); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			i++
		}
	}
	return dbs
}

func refDist(edges []graph.Edge, src graph.VertexID) map[graph.VertexID]int32 {
	adj := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	dist := map[graph.VertexID]int32{src: 0}
	frontier := []graph.VertexID{src}
	for lvl := int32(1); len(frontier) > 0; lvl++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, u := range adj[v] {
				if _, ok := dist[u]; !ok {
					dist[u] = lvl
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

func chainEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return edges
}

func TestBFSChainExactDistances(t *testing.T) {
	edges := chainEdges(20)
	for _, pipelined := range []bool{false, true} {
		f := cluster.NewInProc(4, 0)
		dbs := partition(t, edges, 4)
		for d := 1; d <= 20; d++ {
			res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
				Source: 0, Dest: graph.VertexID(d), Pipelined: pipelined, Threshold: 2,
			})
			if err != nil {
				t.Fatalf("BFS 0->%d: %v", d, err)
			}
			if !res.Found || res.PathLength != int32(d) {
				t.Fatalf("pipelined=%v BFS 0->%d = (%v,%d)", pipelined, d, res.Found, res.PathLength)
			}
		}
		f.Close()
	}
}

func TestBFSSourceEqualsDest(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 1, Dest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.PathLength != 0 {
		t.Fatalf("self query = %+v", res)
	}
}

func TestBFSUnreachable(t *testing.T) {
	// Two disconnected components.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 10, Dst: 11}}
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	dbs := partition(t, edges, 3)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.PathLength != -1 {
		t.Fatalf("unreachable query = %+v", res)
	}
}

func TestBFSUnknownSource(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 77, Dest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("query from unknown vertex found a path: %+v", res)
	}
}

func TestBroadcastModeOnScatteredStorage(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "b", Vertices: 300, M: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	dist := refDist(edges, 5)
	for _, pipelined := range []bool{false, true} {
		f := cluster.NewInProc(4, 0)
		dbs := scatter(t, edges, 4)
		for _, dest := range []graph.VertexID{10, 100, 299} {
			res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
				Source: 5, Dest: dest,
				Routing: Routing{Ownership: BroadcastFringe}, Pipelined: pipelined, Threshold: 4,
			})
			if err != nil {
				t.Fatalf("broadcast BFS: %v", err)
			}
			if !res.Found || res.PathLength != dist[dest] {
				t.Fatalf("pipelined=%v 5->%d = (%v,%d), want (true,%d)",
					pipelined, dest, res.Found, res.PathLength, dist[dest])
			}
		}
		f.Close()
	}
}

func TestBFSRandomGraphAllDistancesBothAlgorithms(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "r", Vertices: 500, M: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	dist := refDist(edges, 0)
	f := cluster.NewInProc(5, 0)
	defer f.Close()
	dbs := partition(t, edges, 5)
	for dest := graph.VertexID(1); dest < 500; dest += 37 {
		want, ok := dist[dest]
		for _, pipelined := range []bool{false, true} {
			res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: dest, Pipelined: pipelined})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found != ok {
				t.Fatalf("0->%d found=%v want %v", dest, res.Found, ok)
			}
			if ok && res.PathLength != want {
				t.Fatalf("0->%d len=%d want %d (pipelined=%v)", dest, res.PathLength, want, pipelined)
			}
		}
	}
}

func TestBFSWorkCountersPlausible(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "w", Vertices: 400, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := cluster.NewInProc(4, 0)
	defer f.Close()
	dbs := partition(t, edges, 4)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: 399})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesTraversed <= 0 {
		t.Fatalf("EdgesTraversed = %d", res.EdgesTraversed)
	}
	if res.EdgesTraversed > 2*int64(len(edges))*2 {
		t.Fatalf("EdgesTraversed = %d exceeds twice the directed edge count %d",
			res.EdgesTraversed, 4*len(edges))
	}
	if res.VerticesVisited <= 0 || res.Levels <= 0 {
		t.Fatalf("counters: %+v", res)
	}
}

func TestBFSMaxLevels(t *testing.T) {
	edges := chainEdges(30)
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, edges, 2)
	_, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: 30, MaxLevels: 5})
	if err == nil {
		t.Fatal("BFS beyond MaxLevels did not error")
	}
}

func TestBFSDBCountMismatch(t *testing.T) {
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	if _, err := ParallelBFS(context.Background(), f, make([]graphdb.Graph, 2), BFSConfig{}); err == nil {
		t.Fatal("db/node count mismatch accepted")
	}
}

func TestMemVisited(t *testing.T) {
	v := NewMemVisited()
	testVisited(t, v)
	testVisitedIDRange(t, v)
	if _, err := v.MarkIfNew(9, -1); err == nil {
		t.Fatal("negative level accepted")
	}

	// Reset keeps the installed pages; no mark of the first use may
	// survive on them, nor in the overflow map.
	v.Reset()
	if v.Count() != 0 {
		t.Fatalf("Count after Reset = %d", v.Count())
	}
	for _, id := range visitedRangeIDs {
		if l, err := v.Level(id); err != nil || l != -1 {
			t.Fatalf("Level(%d) after Reset = %d, %v; want -1", id, l, err)
		}
	}
	testVisited(t, v)
	testVisitedIDRange(t, v)
}

// visitedRangeIDs straddle a page boundary of MemVisited's level array
// (65,535 and 65,536) and its overflow range: ids at and above 2^32,
// graph.MaxVertexID, and negative ids as decoded off the wire.
var visitedRangeIDs = []graph.VertexID{65535, 65536, 1<<32 - 1, 1 << 32, graph.MaxVertexID, -1, -1 << 63}

// testVisitedIDRange marks visitedRangeIDs on v and checks each id's
// level and the count.
func testVisitedIDRange(t *testing.T, v Visited) {
	t.Helper()
	held := v.Count()
	for i, id := range visitedRangeIDs {
		if l, err := v.Level(id); err != nil || l != -1 {
			t.Fatalf("Level(%d) before marking = %d, %v", id, l, err)
		}
		if isNew, err := v.MarkIfNew(id, int32(i)); err != nil || !isNew {
			t.Fatalf("MarkIfNew(%d) = %v, %v", id, isNew, err)
		}
		if isNew, err := v.MarkIfNew(id, 99); err != nil || isNew {
			t.Fatalf("second MarkIfNew(%d) = %v, %v", id, isNew, err)
		}
	}
	for i, id := range visitedRangeIDs {
		if l, err := v.Level(id); err != nil || l != int32(i) {
			t.Fatalf("Level(%d) = %d, %v; want %d", id, l, err, i)
		}
	}
	if l, err := v.Level(65534); err != nil || l != -1 {
		t.Fatalf("Level(65534), a neighbour of a marked id = %d, %v", l, err)
	}
	if want := held + int64(len(visitedRangeIDs)); v.Count() != want {
		t.Fatalf("Count = %d, want %d", v.Count(), want)
	}
}

func TestExtVisited(t *testing.T) {
	v, err := NewExtVisited(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	testVisited(t, v)
}

func testVisited(t *testing.T, v Visited) {
	t.Helper()
	if l, err := v.Level(42); err != nil || l != -1 {
		t.Fatalf("Level of unvisited = %d, %v", l, err)
	}
	isNew, err := v.MarkIfNew(42, 3)
	if err != nil || !isNew {
		t.Fatalf("first MarkIfNew = %v, %v", isNew, err)
	}
	isNew, err = v.MarkIfNew(42, 5)
	if err != nil || isNew {
		t.Fatalf("second MarkIfNew = %v, %v", isNew, err)
	}
	if l, err := v.Level(42); err != nil || l != 3 {
		t.Fatalf("Level = %d, %v; want 3 (first mark wins)", l, err)
	}
	if v.Count() != 1 {
		t.Fatalf("Count = %d", v.Count())
	}
	// Level 0 must be representable (source vertex).
	if _, err := v.MarkIfNew(0, 0); err != nil {
		t.Fatalf("MarkIfNew level 0: %v", err)
	}
	if l, err := v.Level(0); err != nil || l != 0 {
		t.Fatalf("Level(0) = %d, %v", l, err)
	}
}

func TestExtVisitedSparseIDs(t *testing.T) {
	v, err := NewExtVisited(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	ids := []graph.VertexID{0, 1, 4095, 4096, 1 << 20}
	for i, id := range ids {
		if _, err := v.MarkIfNew(id, int32(i)); err != nil {
			t.Fatalf("MarkIfNew(%d): %v", id, err)
		}
	}
	for i, id := range ids {
		l, err := v.Level(id)
		if err != nil || l != int32(i) {
			t.Fatalf("Level(%d) = %d, %v; want %d", id, l, err, i)
		}
	}
	if v.Count() != int64(len(ids)) {
		t.Fatalf("Count = %d", v.Count())
	}
}

func TestExtVisitedLevelCap(t *testing.T) {
	v, err := NewExtVisited(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.MarkIfNew(1, 300); err == nil {
		t.Fatal("level beyond byte range accepted")
	}
}

func TestAnalysisRegistry(t *testing.T) {
	names := Analyses()
	found := false
	for _, n := range names {
		if n == "bfs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bfs not registered: %v", names)
	}
	a, ok := LookupAnalysis("bfs")
	if !ok {
		t.Fatal("LookupAnalysis(bfs) failed")
	}
	if a.Describe() == "" {
		t.Fatal("empty analysis description")
	}

	// Parameter validation.
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(4), 2)
	if _, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "0"}); err == nil {
		t.Fatal("missing dest accepted")
	}
	if _, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "x", "dest": "1"}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "0", "dest": "1", "threshold": "zz"}); err == nil {
		t.Fatal("bad threshold accepted")
	}
	out, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{
		"source": "0", "dest": "3", "pipelined": "true", "threshold": "2",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := out.(BFSResult)
	if !res.Found || res.PathLength != 3 {
		t.Fatalf("analysis result = %+v", res)
	}
}

func TestChunkCodec(t *testing.T) {
	ids := []graph.VertexID{0, 1, graph.MaxVertexID}
	got, err := decodeChunk(encodeChunk(ids))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("round trip = %v", got)
	}
	if _, err := decodeChunk([]byte{}); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, err := decodeChunk([]byte{0, 1, 2}); err == nil {
		t.Fatal("misaligned frame accepted")
	}
}

func TestKHopChain(t *testing.T) {
	edges := chainEdges(10) // path 0-1-2-...-10
	for _, ownership := range []Ownership{KnownMapping, BroadcastFringe} {
		f := cluster.NewInProc(3, 0)
		var dbs []graphdb.Graph
		if ownership == KnownMapping {
			dbs = partition(t, edges, 3)
		} else {
			dbs = scatter(t, edges, 3)
		}
		res, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 0, K: 4, Routing: Routing{Ownership: ownership}})
		if err != nil {
			t.Fatalf("KHop: %v", err)
		}
		// On a chain, each level reaches exactly one new vertex.
		want := []int64{1, 1, 1, 1}
		if !reflect.DeepEqual(res.PerLevel, want) {
			t.Fatalf("ownership=%v PerLevel = %v, want %v", ownership, res.PerLevel, want)
		}
		if res.Total != 4 {
			t.Fatalf("Total = %d, want 4", res.Total)
		}
		f.Close()
	}
}

func TestKHopCountsMatchReferenceBFS(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "k", Vertices: 400, M: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	dist := refDist(edges, 7)
	wantPerLevel := map[int32]int64{}
	var wantTotal int64
	const k = 3
	for _, d := range dist {
		if d >= 1 && d <= k {
			wantPerLevel[d]++
			wantTotal++
		}
	}
	f := cluster.NewInProc(4, 0)
	defer f.Close()
	dbs := partition(t, edges, 4)
	res, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 7, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != wantTotal {
		t.Fatalf("Total = %d, want %d", res.Total, wantTotal)
	}
	for lvl := int32(1); lvl <= k; lvl++ {
		if res.PerLevel[lvl-1] != wantPerLevel[lvl] {
			t.Fatalf("level %d = %d, want %d (all: %v)", lvl, res.PerLevel[lvl-1], wantPerLevel[lvl], res.PerLevel)
		}
	}
}

func TestKHopValidation(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	if _, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 0, K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestKHopAnalysisRegistry(t *testing.T) {
	a, ok := LookupAnalysis("khop")
	if !ok {
		t.Fatal("khop not registered")
	}
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(5), 2)
	out, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "0", "k": "2"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := out.(KHopResult)
	if res.Total != 2 {
		t.Fatalf("khop total = %d, want 2", res.Total)
	}
	if _, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "0"}); err == nil {
		t.Fatal("missing k accepted")
	}
	if _, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "0", "k": "x"}); err == nil {
		t.Fatal("bad k accepted")
	}
}

func TestDBStatsAnalysis(t *testing.T) {
	a, ok := LookupAnalysis("dbstats")
	if !ok {
		t.Fatal("dbstats not registered")
	}
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(5), 2)
	out, err := a.Run(context.Background(), direct{f, dbs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := out.(DBStats)
	if st.Total.EdgesStored != 10 { // 5 edges, both orientations
		t.Fatalf("Total.EdgesStored = %d, want 10", st.Total.EdgesStored)
	}
	if len(st.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries", len(st.PerNode))
	}
}

// TestFilteredBFS stores vertex "types" as metadata and checks that a
// typed traversal only walks matching vertices (semantic BFS).
func TestFilteredBFS(t *testing.T) {
	// Chain 0-1-2-3-4 plus a shortcut 0-9-4 where 9 has type B. A
	// traversal restricted to type A must take the long way.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4},
		{Src: 0, Dst: 9}, {Src: 9, Dst: 4},
	}
	const typeA, typeB = 1, 2
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, edges, 2)
	for _, db := range dbs {
		for _, v := range []graph.VertexID{0, 1, 2, 3, 4} {
			if err := db.SetMetadata(v, typeA); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.SetMetadata(9, typeB); err != nil {
			t.Fatal(err)
		}
	}
	// Unfiltered: shortcut through 9 gives distance 2.
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathLength != 2 {
		t.Fatalf("unfiltered path = %d, want 2", res.PathLength)
	}
	// Restricted to type A: must take the chain, distance 4.
	for _, pipelined := range []bool{false, true} {
		res, err = ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: 4, Pipelined: pipelined,
			Filter: MetaFilter{Op: FilterEqual, Ref: typeA},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.PathLength != 4 {
			t.Fatalf("pipelined=%v filtered path = (%v,%d), want (true,4)", pipelined, res.Found, res.PathLength)
		}
	}
	// Restricted to type B only: 4 is unreachable (4 itself is type A).
	res, err = ParallelBFS(context.Background(), f, dbs, BFSConfig{
		Source: 0, Dest: 4,
		Filter: MetaFilter{Op: FilterEqual, Ref: typeB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("type-B-only traversal found a path: %+v", res)
	}
}

func TestMetaFilterZeroValueMeansNoFilter(t *testing.T) {
	var f MetaFilter
	op, ref := f.metaOp()
	if op != graphdb.MetaIgnore || ref != 0 {
		t.Fatalf("zero MetaFilter = (%v, %d), want (ignore, 0)", op, ref)
	}
}
