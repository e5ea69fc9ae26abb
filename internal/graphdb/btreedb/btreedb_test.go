package btreedb

import (
	"reflect"
	"sort"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// chunkCap is the shared chunk layout's capacity (graphdb/chunk.go).
const chunkCap = graphdb.ChunkCap

func openTest(t *testing.T) *DB {
	t.Helper()
	d, err := Open(graphdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func adjacency(t *testing.T, d *DB, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d, v, out); err != nil {
		t.Fatalf("Adjacency(%d): %v", v, err)
	}
	ids := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestChunkBoundaries(t *testing.T) {
	// Degrees around the 1000-id chunk capacity.
	for _, n := range []int{1, 999, 1000, 1001, 2000, 2500} {
		d := openTest(t)
		edges := make([]graph.Edge, n)
		want := make([]graph.VertexID, n)
		for i := 0; i < n; i++ {
			want[i] = graph.VertexID(5000 + i)
			edges[i] = graph.Edge{Src: 3, Dst: want[i]}
		}
		if err := d.StoreEdges(edges); err != nil {
			t.Fatalf("n=%d StoreEdges: %v", n, err)
		}
		got := adjacency(t, d, 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: got %d ids, want %d", n, len(got), n)
		}
		// Head bookkeeping.
		tailSeq, tailCount, err := d.readHead(3)
		if err != nil {
			t.Fatal(err)
		}
		wantSeq := uint32((n + chunkCap - 1) / chunkCap)
		if tailSeq != wantSeq {
			t.Fatalf("n=%d tailSeq = %d, want %d", n, tailSeq, wantSeq)
		}
		wantCount := uint32(n % chunkCap)
		if wantCount == 0 {
			wantCount = chunkCap
		}
		if tailCount != wantCount {
			t.Fatalf("n=%d tailCount = %d, want %d", n, tailCount, wantCount)
		}
	}
}

func TestIncrementalAppendsAcrossChunkBoundary(t *testing.T) {
	d := openTest(t)
	var want []graph.VertexID
	// Push past one chunk in batches of 7.
	for base := 0; base < 1200; base += 7 {
		var batch []graph.Edge
		for i := base; i < base+7; i++ {
			u := graph.VertexID(100 + i)
			want = append(want, u)
			batch = append(batch, graph.Edge{Src: 9, Dst: u})
		}
		if err := d.StoreEdges(batch); err != nil {
			t.Fatal(err)
		}
	}
	got := adjacency(t, d, 9)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental append mismatch: %d vs %d ids", len(got), len(want))
	}
}

func TestManyVerticesInterleaved(t *testing.T) {
	d := openTest(t)
	want := make(map[graph.VertexID][]graph.VertexID)
	var batch []graph.Edge
	for i := 0; i < 3000; i++ {
		v := graph.VertexID(i % 17)
		u := graph.VertexID(1000 + i)
		want[v] = append(want[v], u)
		batch = append(batch, graph.Edge{Src: v, Dst: u})
		if len(batch) == 100 {
			if err := d.StoreEdges(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := d.StoreEdges(batch); err != nil {
		t.Fatal(err)
	}
	for v, w := range want {
		got := adjacency(t, d, v)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("vertex %d: %d ids, want %d", v, len(got), len(w))
		}
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	d, err := Open(graphdb.Options{Dir: t.TempDir(), CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	edges := make([]graph.Edge, 500)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 5), Dst: graph.VertexID(100 + i)}
	}
	if err := d.StoreEdges(edges); err != nil {
		t.Fatal(err)
	}
	out := graph.NewAdjList(128)
	if err := graphdb.Adjacency(d, 2, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("adjacency without cache = %d ids, want 100", out.Len())
	}
	hits, misses := d.CacheStats()
	if hits != 0 {
		t.Fatalf("cache disabled but %d hits recorded", hits)
	}
	if misses == 0 {
		t.Fatal("no cache misses recorded")
	}
}

func TestIOCountersAfterFlush(t *testing.T) {
	d := openTest(t)
	if err := d.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	_, writes := d.IOCounters()
	if writes == 0 {
		t.Fatal("Flush produced no physical writes")
	}
}
