package grdb

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// tinyLevels is a 3-level ladder (d = 2, 4, 8, like the paper's Fig 3.4
// example) with small blocks, so chain growth is exercised by tiny
// graphs.
func tinyLevels() []graphdb.LevelSpec {
	return []graphdb.LevelSpec{
		{SubBlockCap: 2, BlockBytes: 256},
		{SubBlockCap: 4, BlockBytes: 256},
		{SubBlockCap: 8, BlockBytes: 256},
	}
}

func openTiny(t *testing.T, cacheBytes int64) *DB {
	t.Helper()
	d, err := Open(graphdb.Options{
		Dir:          t.TempDir(),
		CacheBytes:   cacheBytes,
		MaxFileBytes: 4096,
		Levels:       tinyLevels(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func neighbors(t *testing.T, d *DB, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d, v, out); err != nil {
		t.Fatalf("Adjacency(%d): %v", v, err)
	}
	ids := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func storeN(t *testing.T, d *DB, v graph.VertexID, n int) []graph.VertexID {
	t.Helper()
	want := make([]graph.VertexID, n)
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		want[i] = graph.VertexID(1000 + i)
		edges[i] = graph.Edge{Src: v, Dst: want[i]}
	}
	if err := d.StoreEdges(edges); err != nil {
		t.Fatalf("StoreEdges: %v", err)
	}
	return want
}

// TestChainGrowthBoundaries stores exactly the degrees around every
// overflow boundary of the tiny ladder (d0=2: boundaries at 2, 3;
// d0-1+d1 = 5, 6; then level 2, then top-level chaining).
func TestChainGrowthBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 12, 13, 20, 40, 100} {
		d := openTiny(t, 1<<20)
		want := storeN(t, d, 7, n)
		got := neighbors(t, d, 7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("degree %d: got %d neighbours %v, want %d", n, len(got), got, n)
		}
		deg, err := d.Degree(7)
		if err != nil || deg != int64(n) {
			t.Fatalf("Degree = %d, %v; want %d", deg, err, n)
		}
	}
}

// TestChainGrowthIncremental adds neighbours one edge at a time — the
// worst-case fragmentation pattern §3.4.1 describes.
func TestChainGrowthIncremental(t *testing.T) {
	d := openTiny(t, 1<<20)
	var want []graph.VertexID
	for i := 0; i < 60; i++ {
		u := graph.VertexID(500 + i)
		want = append(want, u)
		if err := d.StoreEdges([]graph.Edge{{Src: 3, Dst: u}}); err != nil {
			t.Fatalf("StoreEdges #%d: %v", i, err)
		}
		got := neighbors(t, d, 3)
		sortedWant := append([]graph.VertexID(nil), want...)
		sort.Slice(sortedWant, func(a, b int) bool { return sortedWant[a] < sortedWant[b] })
		if !reflect.DeepEqual(got, sortedWant) {
			t.Fatalf("after %d single-edge stores: got %v", i+1, got)
		}
	}
	// Incremental growth should have produced a multi-block chain.
	hops, err := d.ChainLength(3)
	if err != nil {
		t.Fatalf("ChainLength: %v", err)
	}
	if hops < 3 {
		t.Fatalf("ChainLength = %d, want >= 3 for degree 60 on d=2,4,8", hops)
	}
}

func TestVertexZeroNeighborZero(t *testing.T) {
	// Word encoding must distinguish vertex 0 from an empty slot.
	d := openTiny(t, 1<<20)
	if err := d.StoreEdges([]graph.Edge{{Src: 0, Dst: 0}}); err != nil {
		t.Fatalf("StoreEdges: %v", err)
	}
	got := neighbors(t, d, 0)
	if !reflect.DeepEqual(got, []graph.VertexID{0}) {
		t.Fatalf("Adjacency(0) = %v, want [0]", got)
	}
}

func TestPointerEncoding(t *testing.T) {
	for _, tc := range []struct {
		level int
		sub   int64
	}{{0, 0}, {1, 1}, {5, 123456}, {7, (1 << 58) - 1}} {
		w := encodePointer(tc.level, tc.sub)
		if !isPointer(w) {
			t.Fatalf("encodePointer(%d,%d) not tagged as pointer", tc.level, tc.sub)
		}
		l, s := decodePointer(w)
		if l != tc.level || s != tc.sub {
			t.Fatalf("decodePointer(encodePointer(%d,%d)) = (%d,%d)", tc.level, tc.sub, l, s)
		}
	}
}

func TestNeighborEncoding(t *testing.T) {
	for _, v := range []graph.VertexID{0, 1, 42, graph.MaxVertexID - 1} {
		w := encodeNeighbor(v)
		if w == wordEmpty {
			t.Fatalf("encodeNeighbor(%d) is the empty word", v)
		}
		if isPointer(w) {
			t.Fatalf("encodeNeighbor(%d) tagged as pointer", v)
		}
		if got := decodeNeighbor(w); got != v {
			t.Fatalf("decodeNeighbor(encodeNeighbor(%d)) = %d", v, got)
		}
	}
}

func TestFillPointBinarySearch(t *testing.T) {
	sub := make([]byte, 16*wordBytes)
	for fill := 0; fill <= 16; fill++ {
		for i := range sub {
			sub[i] = 0
		}
		for i := 0; i < fill; i++ {
			setWord(sub, i, encodeNeighbor(graph.VertexID(i)))
		}
		if got := fillPoint(sub); got != fill {
			t.Fatalf("fillPoint with %d slots used = %d", fill, got)
		}
	}
}

func TestLevelValidation(t *testing.T) {
	bad := [][]graphdb.LevelSpec{
		{},                                   // no levels
		{{SubBlockCap: 2, BlockBytes: 4096}}, // one level: overflow would allocate anchors
		{{SubBlockCap: 1, BlockBytes: 4096}, {SubBlockCap: 4, BlockBytes: 4096}}, // d < 2
		{{SubBlockCap: 2, BlockBytes: 8}, {SubBlockCap: 4, BlockBytes: 4096}},    // block < sub-block
		{{SubBlockCap: 3, BlockBytes: 4096}, {SubBlockCap: 8, BlockBytes: 4096}}, // block not multiple of sub-block (3*8=24)
		{{SubBlockCap: 2, BlockBytes: 4096}, {SubBlockCap: 3, BlockBytes: 4096}}, // d1 < 2*d0
	}
	for i, levels := range bad {
		_, err := Open(graphdb.Options{Dir: t.TempDir(), Levels: levels, MaxFileBytes: 4096})
		if err == nil {
			t.Errorf("case %d: invalid ladder accepted", i)
		}
	}
}

func TestDefaultLeversMatchPrototype(t *testing.T) {
	want := []int{2, 4, 16, 256, 4096, 16384}
	levels := DefaultLevels()
	if len(levels) != 6 {
		t.Fatalf("DefaultLevels has %d levels, want 6", len(levels))
	}
	for i, l := range levels {
		if l.SubBlockCap != want[i] {
			t.Errorf("level %d d = %d, want %d", i, l.SubBlockCap, want[i])
		}
	}
	// Block sizes per §4.1.6: 4 KB on levels 0-3, 32 KB, 256 KB.
	for i := 0; i < 4; i++ {
		if levels[i].BlockBytes != 4096 {
			t.Errorf("level %d block = %d, want 4096", i, levels[i].BlockBytes)
		}
	}
	if levels[4].BlockBytes != 32<<10 || levels[5].BlockBytes != 256<<10 {
		t.Errorf("top level blocks = %d/%d, want 32K/256K", levels[4].BlockBytes, levels[5].BlockBytes)
	}
}

func TestSubBlockAddressArithmetic(t *testing.T) {
	// §3.4.1: sub-block s lives in block s/k, file (s/k)/N, offset
	// B*((s/k)%N) + b*d*(s%k). With the tiny ladder, level 0 has
	// k = 256/(2*8) = 16 sub-blocks per block and N = 4096/256 = 16
	// blocks per file; verify against the blockio mapping indirectly by
	// storing far-apart vertices and reading them back.
	d := openTiny(t, 1<<20)
	vertices := []graph.VertexID{0, 15, 16, 255, 256, 1000}
	for _, v := range vertices {
		if err := d.StoreEdges([]graph.Edge{{Src: v, Dst: v + 1}}); err != nil {
			t.Fatalf("StoreEdges(%d): %v", v, err)
		}
	}
	for _, v := range vertices {
		got := neighbors(t, d, v)
		if !reflect.DeepEqual(got, []graph.VertexID{v + 1}) {
			t.Fatalf("Adjacency(%d) = %v", v, got)
		}
	}
	// Multiple level-0 files must exist (vertex 1000 is in file 3).
	if _, err := filepath.Glob(""); err != nil {
		t.Fatal(err)
	}
}

func TestDefragmentShortensChains(t *testing.T) {
	d := openTiny(t, 1<<20)
	// One edge at a time creates a long fragmented chain.
	for i := 0; i < 50; i++ {
		if err := d.StoreEdges([]graph.Edge{{Src: 9, Dst: graph.VertexID(100 + i)}}); err != nil {
			t.Fatalf("StoreEdges: %v", err)
		}
	}
	before, err := d.ChainLength(9)
	if err != nil {
		t.Fatalf("ChainLength: %v", err)
	}
	want := neighbors(t, d, 9)

	rewritten, err := d.Defragment()
	if err != nil {
		t.Fatalf("Defragment: %v", err)
	}
	if rewritten == 0 {
		t.Fatal("Defragment rewrote nothing")
	}
	after, err := d.ChainLength(9)
	if err != nil {
		t.Fatalf("ChainLength after: %v", err)
	}
	if after >= before {
		t.Fatalf("chain length %d -> %d; defragment did not shorten", before, after)
	}
	if got := neighbors(t, d, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("adjacency changed by defragment:\n got %v\nwant %v", got, want)
	}
	// Appends after defragmentation must still work.
	if err := d.StoreEdges([]graph.Edge{{Src: 9, Dst: 999}}); err != nil {
		t.Fatalf("StoreEdges after defragment: %v", err)
	}
	want = append(want, 999)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := neighbors(t, d, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("append after defragment broken:\n got %v\nwant %v", got, want)
	}
}

func TestDefragmentIdempotent(t *testing.T) {
	d := openTiny(t, 1<<20)
	for i := 0; i < 30; i++ {
		if err := d.StoreEdges([]graph.Edge{{Src: 2, Dst: graph.VertexID(50 + i)}}); err != nil {
			t.Fatalf("StoreEdges: %v", err)
		}
	}
	if _, err := d.Defragment(); err != nil {
		t.Fatalf("first Defragment: %v", err)
	}
	n, err := d.Defragment()
	if err != nil {
		t.Fatalf("second Defragment: %v", err)
	}
	if n != 0 {
		t.Fatalf("second Defragment rewrote %d chains, want 0", n)
	}
}

func TestPersistenceWithChains(t *testing.T) {
	dir := t.TempDir()
	opts := graphdb.Options{Dir: dir, MaxFileBytes: 4096, Levels: tinyLevels()}
	d, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := storeN(t, d, 5, 23)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	d2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got := neighbors(t, d2, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: got %v, want %v", got, want)
	}
	// Appends must continue from the persisted allocation counters, not
	// overwrite existing chains.
	if err := d2.StoreEdges([]graph.Edge{{Src: 6, Dst: 1}, {Src: 6, Dst: 2}, {Src: 6, Dst: 3}}); err != nil {
		t.Fatalf("StoreEdges after reopen: %v", err)
	}
	if got := neighbors(t, d2, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("vertex 5 corrupted by post-reopen allocation: %v", got)
	}
}

func TestManifestLadderMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(graphdb.Options{Dir: dir, MaxFileBytes: 4096, Levels: tinyLevels()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	storeN(t, d, 1, 5)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err = Open(graphdb.Options{Dir: dir, MaxFileBytes: 4096, Levels: tinyLevels()[:2]})
	if err == nil {
		t.Fatal("reopen with different ladder accepted")
	}
}

func TestCacheCountersMove(t *testing.T) {
	d := openTiny(t, 1<<20)
	storeN(t, d, 3, 20)
	neighbors(t, d, 3)
	hits, misses := d.CacheStats()
	if hits+misses == 0 {
		t.Fatal("cache counters never moved")
	}
	reads, writes := d.IOCounters()
	if writes == 0 && reads == 0 {
		// With a large cache everything may still be resident; force it
		// out.
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		_, writes = d.IOCounters()
		if writes == 0 {
			t.Fatal("no physical writes even after Flush")
		}
	}
}

// TestQuickChainInvariant: for arbitrary degree sequences, storing then
// reading preserves exact multisets (chains through every level).
func TestQuickChainInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	check := func(degreesRaw []uint8) bool {
		d, err := Open(graphdb.Options{
			Dir:          t.TempDir(),
			MaxFileBytes: 4096,
			Levels:       tinyLevels(),
		})
		if err != nil {
			return false
		}
		defer d.Close()
		want := make(map[graph.VertexID][]graph.VertexID)
		for vi, deg := range degreesRaw {
			v := graph.VertexID(vi)
			var batch []graph.Edge
			for i := 0; i < int(deg); i++ {
				u := graph.VertexID(10000 + i)
				batch = append(batch, graph.Edge{Src: v, Dst: u})
				want[v] = append(want[v], u)
			}
			if err := d.StoreEdges(batch); err != nil {
				return false
			}
		}
		for v, w := range want {
			out := graph.NewAdjList(len(w))
			if err := graphdb.Adjacency(d, v, out); err != nil {
				return false
			}
			got := append([]graph.VertexID(nil), out.IDs()...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
			if !reflect.DeepEqual(got, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchAdjacency(t *testing.T) {
	d := openTiny(t, 1<<20)
	var fringe []graph.VertexID
	for v := graph.VertexID(0); v < 20; v++ {
		storeN(t, d, v, int(v)+1)
		fringe = append(fringe, v)
	}
	touched, err := d.PrefetchAdjacency(fringe)
	if err != nil {
		t.Fatalf("PrefetchAdjacency: %v", err)
	}
	if touched == 0 {
		t.Fatal("prefetch touched no blocks")
	}
	// After the prefetch, reading every fringe adjacency must be pure
	// cache hits (no new physical reads).
	readsBefore, _ := d.IOCounters()
	for _, v := range fringe {
		out := graph.NewAdjList(32)
		if err := graphdb.Adjacency(d, v, out); err != nil {
			t.Fatal(err)
		}
		if out.Len() != int(v)+1 {
			t.Fatalf("adjacency of %d has %d ids", v, out.Len())
		}
	}
	readsAfter, _ := d.IOCounters()
	if readsAfter != readsBefore {
		t.Fatalf("adjacency after prefetch caused %d physical reads", readsAfter-readsBefore)
	}
}

func TestPrefetchUnknownVerticesHarmless(t *testing.T) {
	d := openTiny(t, 1<<20)
	if _, err := d.PrefetchAdjacency([]graph.VertexID{5, 999, graph.MaxVertexID + 1}); err != nil {
		t.Fatalf("PrefetchAdjacency of unknown vertices: %v", err)
	}
}

func TestCheckCleanDatabase(t *testing.T) {
	d := openTiny(t, 1<<20)
	var totalEdges int64
	for v := graph.VertexID(0); v < 30; v++ {
		n := int(v%13) + 1
		storeN(t, d, v, n)
		totalEdges += int64(n)
	}
	rep, err := d.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Vertices != 30 {
		t.Errorf("Vertices = %d, want 30", rep.Vertices)
	}
	if rep.Edges != totalEdges {
		t.Errorf("Edges = %d, want %d", rep.Edges, totalEdges)
	}
	if rep.MaxChain < 2 {
		t.Errorf("MaxChain = %d, want >= 2 (degree 13 on d=2,4,8)", rep.MaxChain)
	}
	if rep.LevelSubBlocks[0] != 30 {
		t.Errorf("level-0 sub-blocks = %d, want 30", rep.LevelSubBlocks[0])
	}
}

func TestCheckAfterDefragment(t *testing.T) {
	d := openTiny(t, 1<<20)
	for i := 0; i < 40; i++ {
		if err := d.StoreEdges([]graph.Edge{{Src: 4, Dst: graph.VertexID(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Defragment(); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Check()
	if err != nil {
		t.Fatalf("Check after defragment: %v", err)
	}
	if rep.Edges != 40 {
		t.Fatalf("Edges after defragment = %d, want 40", rep.Edges)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	d := openTiny(t, 1<<20)
	storeN(t, d, 0, 10) // chain through levels
	// Corrupt: plant a pointer to an unallocated sub-block in level 0.
	h, sub, err := d.subBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	setWord(sub, d.levels[0].d-1, encodePointer(2, 9999))
	h.MarkDirty()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Check(); err == nil {
		t.Fatal("Check accepted a dangling pointer")
	}
}
