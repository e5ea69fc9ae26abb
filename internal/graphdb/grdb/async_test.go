package grdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// smallLevels keeps chains multi-level with few edges.
func smallLevels() []graphdb.LevelSpec {
	return []graphdb.LevelSpec{
		{SubBlockCap: 2, BlockBytes: 256},
		{SubBlockCap: 4, BlockBytes: 256},
		{SubBlockCap: 8, BlockBytes: 256},
	}
}

func seedEdges(n int) []graph.Edge {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		deg := 1 + (v*7)%23
		for i := 0; i < deg; i++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + i + 1) % n)})
		}
	}
	return edges
}

func adjacency(t *testing.T, g graphdb.Graph, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(8)
	if err := graphdb.Adjacency(g, v, out); err != nil {
		t.Fatalf("adjacency(%d): %v", v, err)
	}
	ids := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCompressedMatchesPlain: a compressed DB must return exactly the
// adjacency a plain DB returns, across reopen, in both durability modes.
func TestCompressedMatchesPlain(t *testing.T) {
	for _, durability := range []graphdb.DurabilityLevel{graphdb.DurabilityNone, graphdb.DurabilityFull} {
		t.Run(durability.String(), func(t *testing.T) {
			edges := seedEdges(60)
			open := func(dir string, compress bool) *DB {
				d, err := Open(graphdb.Options{
					Dir: dir, Levels: smallLevels(), MaxFileBytes: 4096,
					Compress: compress, Durability: durability,
				})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			plainDir, compDir := t.TempDir(), t.TempDir()
			plain, comp := open(plainDir, false), open(compDir, true)
			for _, d := range []*DB{plain, comp} {
				if err := d.StoreEdges(edges); err != nil {
					t.Fatal(err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			plain, comp = open(plainDir, false), open(compDir, true)
			defer plain.Close()
			defer comp.Close()
			for v := graph.VertexID(0); v < 60; v++ {
				want := adjacency(t, plain, v)
				got := adjacency(t, comp, v)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("vertex %d: compressed %v, plain %v", v, got, want)
				}
			}
		})
	}
}

// TestCompressedMarkerMismatch: reopening with the wrong Compress
// setting must fail, not misread blocks.
func TestCompressedMarkerMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(graphdb.Options{Dir: dir, Levels: smallLevels(), MaxFileBytes: 4096, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreEdges(seedEdges(10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(graphdb.Options{Dir: dir, Levels: smallLevels(), MaxFileBytes: 4096}); err == nil {
		t.Fatal("compressed database opened without Compress")
	}
	// And the converse: plain database, compressed reopen.
	dir2 := t.TempDir()
	d2, err := Open(graphdb.Options{Dir: dir2, Levels: smallLevels(), MaxFileBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.StoreEdges(seedEdges(10)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(graphdb.Options{Dir: dir2, Levels: smallLevels(), MaxFileBytes: 4096, Compress: true}); err == nil {
		t.Fatal("plain database opened with Compress")
	}
}

// TestPrefetchAsyncWarmsCache: after Wait, expanding the fringe must be
// all cache hits, and the job must warm the same blocks the synchronous
// sweep touches.
func TestPrefetchAsyncWarmsCache(t *testing.T) {
	d, err := Open(graphdb.Options{Dir: t.TempDir(), Levels: smallLevels(), MaxFileBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.StoreEdges(seedEdges(50)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	fringe := []graph.VertexID{1, 5, 9, 13, 44}
	job := d.PrefetchAsync(context.Background(), fringe)
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	missesBefore := d.cache.Stats().Misses
	for _, v := range fringe {
		adjacency(t, d, v)
	}
	if misses := d.cache.Stats().Misses - missesBefore; misses != 0 {
		t.Fatalf("expansion after prefetch took %d misses, want 0", misses)
	}
	if g := d.PrefetchGoroutines(); g != 0 {
		t.Fatalf("%d prefetch goroutines alive after Wait", g)
	}
}

// TestPrefetchAsyncCancel: cancelling mid-flight must stop the job with
// the context error and leave no goroutine running.
func TestPrefetchAsyncCancel(t *testing.T) {
	d, err := Open(graphdb.Options{
		Dir: t.TempDir(), Levels: smallLevels(), MaxFileBytes: 4096,
		// Slow simulated device so cancellation lands mid-job.
		SimReadLatency: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.StoreEdges(seedEdges(300)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	fringe := make([]graph.VertexID, 300)
	for i := range fringe {
		fringe[i] = graph.VertexID(i)
	}
	job := d.PrefetchAsync(context.Background(), fringe)
	job.Cancel()
	if err := job.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Cancel = %v, want nil or context.Canceled", err)
	}
	if g := d.PrefetchGoroutines(); g != 0 {
		t.Fatalf("%d prefetch goroutines alive after cancelled Wait", g)
	}
	// Close with a fresh in-flight job must drain it.
	job2 := d.PrefetchAsync(context.Background(), fringe)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_ = job2.Wait()
	if g := d.PrefetchGoroutines(); g != 0 {
		t.Fatalf("%d prefetch goroutines alive after Close", g)
	}
}

// TestPrefetchCancelNotCountedAsError: a job stopped by its context is
// cancelled, not failed — Wait reports the context error, but
// grdb.prefetch.errors stays 0.
func TestPrefetchCancelNotCountedAsError(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := Open(graphdb.Options{Dir: t.TempDir(), Levels: smallLevels(), MaxFileBytes: 4096, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.StoreEdges(seedEdges(50)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := d.PrefetchAsync(ctx, []graph.VertexID{1, 5, 9})
	if err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if n := reg.Counter("grdb.prefetch.errors").Value(); n != 0 {
		t.Fatalf("grdb.prefetch.errors = %d after a cancelled job, want 0", n)
	}
}

// TestPrefetchAsyncMatchesSync: async and sync prefetch agree on the
// number of distinct blocks warmed for the same fringe.
func TestPrefetchAsyncMatchesSync(t *testing.T) {
	edges := seedEdges(80)
	fringe := make([]graph.VertexID, 80)
	for i := range fringe {
		fringe[i] = graph.VertexID(i)
	}
	count := func(async bool) int64 {
		d, err := Open(graphdb.Options{Dir: t.TempDir(), Levels: smallLevels(), MaxFileBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.StoreEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if async {
			job := d.PrefetchAsync(context.Background(), fringe).(*prefetchJob)
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			return job.Blocks()
		}
		n, err := d.PrefetchAdjacency(fringe)
		if err != nil {
			t.Fatal(err)
		}
		return int64(n)
	}
	if a, s := count(true), count(false); a != s {
		t.Fatalf("async warmed %d blocks, sync %d", a, s)
	}
}

// TestCompressedBytesShrink: the same ingest moves fewer bytes to the
// device compressed than plain.
func TestCompressedBytesShrink(t *testing.T) {
	edges := seedEdges(120)
	written := func(compress bool) int64 {
		d, err := Open(graphdb.Options{
			Dir: t.TempDir(), Levels: smallLevels(), MaxFileBytes: 4096, Compress: compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.StoreEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		var bytes int64
		for _, l := range d.levels {
			bytes += l.store.Counters().BytesWritten
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return bytes
	}
	plain, comp := written(false), written(true)
	if comp >= plain {
		t.Fatalf("compressed ingest wrote %d bytes, plain %d — no shrink", comp, plain)
	}
	t.Log(fmt.Sprintf("bytes written: plain %d, compressed %d", plain, comp))
}
