package grdb

import (
	"fmt"
	"testing"
	"time"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// chainedVertex is the vertex whose chain the corruption tests damage:
// degree 10 on the tiny ladder runs level 0 → level 1 → level 2.
const chainedVertex = graph.VertexID(1)

// openChained opens a tiny database holding chainedVertex's chain and a
// second chained vertex, then reopens it so no tail hint lets an append
// skip the anchor.
func openChained(t testing.TB) *DB {
	t.Helper()
	opts := graphdb.Options{Dir: t.TempDir(), CacheBytes: 1 << 20, MaxFileBytes: 4096, Levels: tinyLevels()}
	d, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var edges []graph.Edge
	for _, v := range []graph.VertexID{chainedVertex, 3} {
		for i := 0; i < 10; i++ {
			edges = append(edges, graph.Edge{Src: v, Dst: graph.VertexID(100 + i)})
		}
	}
	if err := d.StoreEdges(edges); err != nil {
		t.Fatalf("StoreEdges: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d, err = Open(opts); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// writeWords overwrites the first words of sub-block p.
func writeWords(t testing.TB, d *DB, p subPos, words ...uint64) {
	t.Helper()
	h, sub, err := d.subBlock(p.level, p.sub)
	if err != nil {
		t.Fatalf("subBlock%v: %v", p, err)
	}
	for i, w := range words {
		setWord(sub, i, w)
	}
	h.MarkDirty()
	if err := h.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

type chainReader struct {
	name string
	call func() error
}

// chainReaders is every entry point that walks v's chain. The two
// mutators come last.
func chainReaders(d *DB, v graph.VertexID) []chainReader {
	return []chainReader{
		{"AdjacencyUsingMetadata", func() error {
			return d.AdjacencyUsingMetadata(v, graph.NewAdjList(16), 0, graphdb.MetaIgnore)
		}},
		{"Degree", func() error { _, err := d.Degree(v); return err }},
		{"ChainLength", func() error { _, err := d.ChainLength(v); return err }},
		{"ForEachVertex", func() error { return d.ForEachVertex(func(graph.VertexID) error { return nil }) }},
		{"PrefetchAdjacency", func() error { _, err := d.PrefetchAdjacency([]graph.VertexID{v}); return err }},
		{"Check", func() error { _, err := d.Check(); return err }},
		{"DefragmentVertex", func() error { _, err := d.DefragmentVertex(v); return err }},
		{"StoreEdges", func() error { return d.StoreEdges([]graph.Edge{{Src: v, Dst: 999}}) }},
	}
}

// chainWalkBound is how long one reader may take on a tiny database.
const chainWalkBound = 10 * time.Second

// bounded runs r and returns its error, failing the test if r panics. A
// reader still running after chainWalkBound stops the binary with every
// goroutine's stack, as a test timeout does: a walk that never ends may
// keep allocating.
func bounded(t testing.TB, r chainReader) error {
	t.Helper()
	type result struct {
		err      error
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{panicked: p}
			}
		}()
		done <- result{err: r.call()}
	}()
	select {
	case res := <-done:
		if res.panicked != nil {
			t.Fatalf("%s panicked: %v", r.name, res.panicked)
		}
		return res.err
	case <-time.After(chainWalkBound):
		panic(fmt.Sprintf("%s did not return within %v", r.name, chainWalkBound))
	}
}

// TestCorruptChainReaders writes three corrupt continuation pointers into
// a chained vertex's anchor; every chain reader must report each one as
// an error rather than panic, loop, or follow it.
func TestCorruptChainReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		ptr  uint64
	}{
		{"past the ladder", encodePointer(7, 0)},
		{"back into level 0", encodePointer(0, anchor(chainedVertex).sub)},
		{"unallocated sub-block", encodePointer(2, 9999)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := openChained(t)
			writeWords(t, d, anchor(chainedVertex), encodeNeighbor(100), tc.ptr)
			for _, r := range chainReaders(d, chainedVertex) {
				if err := bounded(t, r); err == nil {
					t.Errorf("%s accepted the corrupt chain", r.name)
				}
			}
		})
	}
}

// TestForEachVertexProbesOnlyAnchors: the scan reads each candidate's
// level-0 block once, however long the hub chains behind it are.
func TestForEachVertexProbesOnlyAnchors(t *testing.T) {
	d := openTiny(t, 1<<20)
	for v := graph.VertexID(0); v < 20; v += 2 {
		storeN(t, d, v, 3*int(v)+1) // every other vertex; degrees up to 55
	}
	hits0, misses0 := d.CacheStats()
	var seen int
	if err := d.ForEachVertex(func(graph.VertexID) error { seen++; return nil }); err != nil {
		t.Fatalf("ForEachVertex: %v", err)
	}
	hits, misses := d.CacheStats()
	if seen != 10 {
		t.Fatalf("ForEachVertex visited %d vertices, want 10", seen)
	}
	if gets, want := hits-hits0+misses-misses0, int64(d.maxVertex)+1; gets != want {
		t.Fatalf("ForEachVertex made %d cache gets, want %d (one per anchor)", gets, want)
	}
}

// FuzzChainWalk writes arbitrary words into a chained vertex's level-0
// anchor and the level-1 sub-block it points to. Every reader must
// return data or an error, and an image Check accepts must read back
// consistently.
func FuzzChainWalk(f *testing.F) {
	ptr := encodePointer
	n := func(v graph.VertexID) uint64 { return encodeNeighbor(v) }
	f.Add(n(100), ptr(1, 0), n(101), n(102), n(103), ptr(2, 0)) // the stored chain
	f.Add(n(100), ptr(1, 1), n(101), n(102), n(103), ptr(2, 1)) // into the other chain
	f.Add(n(100), ptr(7, 0), n(101), n(102), n(103), ptr(2, 0))
	f.Add(n(100), ptr(0, 1), n(101), n(102), n(103), ptr(2, 0))
	f.Add(n(100), ptr(1, 0), n(101), n(102), n(103), ptr(1, 0))
	f.Add(n(100), ptr(1, 0), n(101), n(102), n(103), ptr(0, 3))
	f.Add(n(100), ptr(1, 0), n(101), ptr(2, 0), wordEmpty, ptr(2, 0))
	f.Add(n(100), ptr(2, 1), wordEmpty, wordEmpty, wordEmpty, wordEmpty)
	f.Add(wordEmpty, ptr(1, 0), n(101), n(102), n(103), n(104))
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1, b2, b3 uint64) {
		d := openChained(t)
		v := chainedVertex
		writeWords(t, d, anchor(v), a0, a1)
		writeWords(t, d, subPos{level: 1, sub: 0}, b0, b1, b2, b3)

		rep, checkErr := d.Check()
		if checkErr == nil {
			var sum int64
			for u := graph.VertexID(0); u <= d.maxVertex; u++ {
				deg, err := d.Degree(u)
				if err != nil {
					t.Fatalf("Check accepted the image but Degree(%d): %v", u, err)
				}
				out := graph.NewAdjList(16)
				if err := graphdb.Adjacency(d, u, out); err != nil {
					t.Fatalf("Check accepted the image but Adjacency(%d): %v", u, err)
				}
				if int64(out.Len()) != deg {
					t.Fatalf("vertex %d: Degree %d, adjacency length %d", u, deg, out.Len())
				}
				sum += deg
			}
			if rep.Edges != sum {
				t.Fatalf("CheckReport.Edges = %d, sum of degrees %d", rep.Edges, sum)
			}
		}
		for _, r := range chainReaders(d, v) {
			if err := bounded(t, r); checkErr == nil && err != nil {
				t.Fatalf("Check accepted the image but %s: %v", r.name, err)
			}
		}
	})
}
