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

// Fault suite for the kernel's expansion read path on grDB: cancelling a
// query on a slow device must make it return, and injected block-read
// I/O errors must never produce wrong results. The whole file is run
// under -race by the ci target.

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

// TestExpandCancellationNoLeak: cancelling a query on a slow simulated
// device must abort it.
func TestExpandCancellationNoLeak(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "apc", Vertices: 800, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := grdbPartition(t, edges, p, func(i int, o *graphdb.Options) {
		o.SimReadLatency = time.Millisecond
		o.CacheBytes = 64 << 10 // small cache: expansion really reads
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := ParallelBFS(ctx, f, dbs, BFSConfig{Source: 0, Dest: 4242})
		if err == nil {
			// The graph has no vertex 4242, so an uncancelled run returns
			// found=false with a nil error; either outcome is fine — the
			// invariant under test is that the query returns.
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
}

// flakyFS wraps the real filesystem and, once armed, makes every nth
// ReadAt on block files fail with EIO. Writes are untouched, and the
// injector stays disarmed during ingest, so only the query's read path
// sees faults.
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

// TestExpandErrorInjection: with transient EIO faults injected under
// the expansion read path, a query either fails cleanly or returns
// exactly the fault-free reference result — never silently wrong data.
func TestExpandErrorInjection(t *testing.T) {
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
		// Small cache, two nodes: sparse faults can miss the query's
		// reads, so it can still succeed — and then must match the
		// reference exactly.
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
			Source: 0, Dest: 399, Workers: 2,
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
		f.Close()
	}
	// The dense rates must actually trip the error path and the sparse
	// rates must exercise the success path — otherwise the sweep proves
	// nothing.
	if !sawError || !sawSuccess {
		t.Fatalf("fault sweep degenerate: sawError=%v sawSuccess=%v", sawError, sawSuccess)
	}
}
