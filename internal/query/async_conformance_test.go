package query

import (
	"context"
	"io/fs"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/storage/vfs"
)

// Conformance suite for the pipelined async prefetch (DESIGN.md §13):
// BFS and k-hop with the prefetch pipeline must return exactly what the
// serial no-prefetch reference returns, cancellation must leave no
// prefetch goroutine behind, and injected prefetch I/O errors must
// never produce wrong results. The whole file is run under -race by the
// ci target.

// grdbLevels keeps chains multi-level on small test graphs.
func grdbLevels() []graphdb.LevelSpec {
	return []graphdb.LevelSpec{
		{SubBlockCap: 2, BlockBytes: 256},
		{SubBlockCap: 4, BlockBytes: 256},
		{SubBlockCap: 8, BlockBytes: 256},
	}
}

// grdbPartition loads an undirected view of edges into p grdb instances
// with the GID % p mapping. mod edits the per-node Options before Open.
func grdbPartition(t *testing.T, edges []graph.Edge, p int, mod func(i int, o *graphdb.Options)) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		opts := graphdb.Options{Dir: t.TempDir(), Levels: grdbLevels(), MaxFileBytes: 4096}
		if mod != nil {
			mod(i, &opts)
		}
		d, err := grdb.Open(opts)
		if err != nil {
			t.Fatalf("grdb.Open node %d: %v", i, err)
		}
		dbs[i] = d
		t.Cleanup(func() { d.Close() })
	}
	for _, e := range edges {
		for _, d := range []graph.Edge{e, e.Reverse()} {
			owner := cluster.Owner(int64(d.Src), p)
			if err := dbs[owner].StoreEdges([]graph.Edge{d}); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
		}
	}
	for _, d := range dbs {
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	return dbs
}

// blankTimings zeroes the wall-clock fields so results from different
// runs compare with DeepEqual.
func blankTimings(r *BFSResult) {
	for i := range r.LevelStats {
		r.LevelStats[i].ExpandNs = 0
		r.LevelStats[i].TotalNs = 0
	}
}

// TestAsyncPrefetchMatchesSerialBFS: for every interesting backend
// configuration, a BFS with the prefetch pipeline returns exactly what
// the serial no-prefetch reference returns — every field, not just
// Found/PathLength.
func TestAsyncPrefetchMatchesSerialBFS(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "apf", Vertices: 600, M: 2, HubFraction: 0.15, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	configs := []struct {
		name string
		mod  func(i int, o *graphdb.Options)
	}{
		{"plain", nil},
		{"compressed", func(i int, o *graphdb.Options) { o.Compress = true }},
		{"durable", func(i int, o *graphdb.Options) { o.Durability = graphdb.DurabilityFull }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			f := cluster.NewInProc(p, 0)
			defer f.Close()
			dbs := grdbPartition(t, edges, p, tc.mod)
			for _, dest := range []graph.VertexID{1, 137, 599, 4242 /* absent */} {
				base := BFSConfig{Source: 0, Dest: dest}
				ref, err := ParallelBFS(context.Background(), f, dbs, base)
				if err != nil {
					t.Fatalf("reference BFS 0->%d: %v", dest, err)
				}
				pf := base
				pf.Prefetch = true
				got, err := ParallelBFS(context.Background(), f, dbs, pf)
				if err != nil {
					t.Fatalf("prefetch BFS 0->%d: %v", dest, err)
				}
				blankTimings(&ref)
				blankTimings(&got)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("0->%d prefetch result diverged:\ngot  %+v\nwant %+v", dest, got, ref)
				}
				// Prefetch with parallel expansion on top.
				pw := pf
				pw.Workers = 4
				got2, err := ParallelBFS(context.Background(), f, dbs, pw)
				if err != nil {
					t.Fatalf("prefetch+workers BFS 0->%d: %v", dest, err)
				}
				blankTimings(&got2)
				if !reflect.DeepEqual(got2, ref) {
					t.Fatalf("0->%d prefetch+workers diverged:\ngot  %+v\nwant %+v", dest, got2, ref)
				}
			}
			// No prefetch goroutine survives the queries.
			for i, db := range dbs {
				if g := db.(*grdb.DB).PrefetchGoroutines(); g != 0 {
					t.Fatalf("node %d: %d prefetch goroutines alive after queries", i, g)
				}
			}
		})
	}
}

// TestAsyncPrefetchMatchesSerialKHop: same conformance for the k-hop
// analysis.
func TestAsyncPrefetchMatchesSerialKHop(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "apk", Vertices: 500, M: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := grdbPartition(t, edges, p, nil)
	for _, k := range []int{1, 2, 4} {
		ref, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 7, K: k})
		if err != nil {
			t.Fatalf("reference khop k=%d: %v", k, err)
		}
		got, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 7, K: k, Prefetch: true})
		if err != nil {
			t.Fatalf("prefetch khop k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("k=%d prefetch khop diverged:\ngot  %+v\nwant %+v", k, got, ref)
		}
	}
	for i, db := range dbs {
		if g := db.(*grdb.DB).PrefetchGoroutines(); g != 0 {
			t.Fatalf("node %d: %d prefetch goroutines alive", i, g)
		}
	}
}

// TestAsyncPrefetchCancellationNoLeak: cancelling a prefetching query on
// a slow simulated device must abort it and leave zero prefetch
// goroutines on every node.
func TestAsyncPrefetchCancellationNoLeak(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "apc", Vertices: 800, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := grdbPartition(t, edges, p, func(i int, o *graphdb.Options) {
		o.SimReadLatency = time.Millisecond
		o.CacheBytes = 64 << 10 // small cache: prefetch really reads
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := ParallelBFS(ctx, f, dbs, BFSConfig{Source: 0, Dest: 4242, Prefetch: true})
		if err == nil {
			// The graph has no vertex 4242, so an uncancelled run returns
			// found=false with a nil error; either outcome is fine — the
			// invariant under test is goroutine cleanup.
			return
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	for i, db := range dbs {
		if g := db.(*grdb.DB).PrefetchGoroutines(); g != 0 {
			t.Fatalf("node %d: %d prefetch goroutines alive after cancellation", i, g)
		}
	}
}

// flakyFS wraps the real filesystem and, once armed, makes every nth
// ReadAt on block files fail with EIO. Writes are untouched, and the
// injector stays disarmed during ingest, so only the query's read path
// (prefetch and expansion alike) sees faults.
type flakyFS struct {
	vfs.FS
	n     int64
	armed atomic.Bool
	reads atomic.Int64
}

type flakyFile struct {
	vfs.File
	fs *flakyFS
}

func (f *flakyFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.Load() && f.fs.reads.Add(1)%f.fs.n == 0 {
		return 0, syscall.EIO
	}
	return f.File.ReadAt(p, off)
}

// TestAsyncPrefetchErrorInjection: with transient EIO faults injected
// under both the prefetch and expansion read paths, a query either
// fails cleanly or returns exactly the fault-free reference result —
// never silently wrong data — and never leaks a goroutine.
func TestAsyncPrefetchErrorInjection(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "ape", Vertices: 400, M: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free reference per fabric size (FringeSent depends on it).
	refs := map[int]BFSResult{}
	for _, p := range []int{1, 2} {
		fr := cluster.NewInProc(p, 0)
		refDbs := grdbPartition(t, edges, p, nil)
		ref, err := ParallelBFS(context.Background(), fr, refDbs, BFSConfig{Source: 0, Dest: 399})
		fr.Close()
		if err != nil {
			t.Fatalf("reference BFS p=%d: %v", p, err)
		}
		blankTimings(&ref)
		refs[p] = ref
	}

	sawError, sawSuccess := false, false
	cases := []struct {
		n          int64
		p          int
		cacheBytes int64
	}{
		// Cache disabled: every sub-block access is a physical read, so
		// dense fault rates are guaranteed to hit the query. Single node:
		// an in-proc peer of a locally failed node would otherwise block
		// in its receive with no fabric timeout to free it.
		{2, 1, -1},
		{3, 1, -1},
		{7, 1, -1},
		// Small cache, two nodes: most faults land in the advisory
		// prefetch path or are absorbed by hits, so the query can still
		// succeed — and then must match the reference exactly.
		{31, 2, 32 << 10},
		{101, 2, 32 << 10},
	}
	for _, tc := range cases {
		n := tc.n
		fsys := &flakyFS{FS: vfs.OS, n: n}
		f := cluster.NewInProc(tc.p, 0)
		dbs := grdbPartition(t, edges, tc.p, func(i int, o *graphdb.Options) {
			o.FS = fsys
			o.CacheBytes = tc.cacheBytes
		})
		fsys.armed.Store(true) // ingest done — start faulting reads
		got, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: 399, Prefetch: true, Workers: 2,
		})
		if err != nil {
			sawError = true
		} else {
			sawSuccess = true
			blankTimings(&got)
			if !reflect.DeepEqual(got, refs[tc.p]) {
				t.Fatalf("n=%d: faulty run returned nil error with wrong result:\ngot  %+v\nwant %+v", n, got, refs[tc.p])
			}
		}
		for i, db := range dbs {
			if g := db.(*grdb.DB).PrefetchGoroutines(); g != 0 {
				t.Fatalf("n=%d node %d: %d prefetch goroutines alive after faulty query", n, i, g)
			}
		}
		f.Close()
	}
	// The dense rates must actually trip the error path and the sparse
	// rates must exercise the success path — otherwise the sweep proves
	// nothing.
	if !sawError || !sawSuccess {
		t.Fatalf("fault sweep degenerate: sawError=%v sawSuccess=%v", sawError, sawSuccess)
	}
}
