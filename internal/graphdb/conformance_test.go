package graphdb_test

// Conformance suite: every registered backend must implement the
// Listing 3.1 contract identically. The same table of tests runs against
// all six implementations, with an in-memory reference model as oracle.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all"
)

// openBackend creates a fresh instance of the named backend in a temp dir.
func openBackend(t testing.TB, name string) graphdb.Graph {
	t.Helper()
	g, err := graphdb.Open(name, graphdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	t.Cleanup(func() {
		if err := g.Close(); err != nil {
			t.Errorf("close %s: %v", name, err)
		}
	})
	return g
}

func allBackends() []string { return graphdb.Backends() }

func sortedIDs(a *graph.AdjList) []graph.VertexID {
	ids := append([]graph.VertexID(nil), a.IDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestRegistryHasAllSixBackends(t *testing.T) {
	want := []string{"array", "bdb", "grdb", "hashmap", "mysql", "stream"}
	if got := graphdb.Backends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
}

func TestStoreAndRetrieveSmall(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 0}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1},
		{Src: 3, Dst: 0},
	}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			out := graph.NewAdjList(8)
			if err := graphdb.Adjacency(g, 0, out); err != nil {
				t.Fatalf("Adjacency(0): %v", err)
			}
			if got, want := sortedIDs(out), []graph.VertexID{1, 2, 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("Adjacency(0) = %v, want %v", got, want)
			}
			out.Reset()
			if err := graphdb.Adjacency(g, 3, out); err != nil {
				t.Fatalf("Adjacency(3): %v", err)
			}
			if got, want := sortedIDs(out), []graph.VertexID{0}; !reflect.DeepEqual(got, want) {
				t.Fatalf("Adjacency(3) = %v, want %v", got, want)
			}
		})
	}
}

func TestUnknownVertexYieldsEmpty(t *testing.T) {
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			out := graph.NewAdjList(4)
			// Vertex 999 was never stored; the paper's BFS relies on the
			// empty set here (§4.2, steps 5 and 10).
			if err := graphdb.Adjacency(g, 999, out); err != nil {
				t.Fatalf("Adjacency(999): %v", err)
			}
			if out.Len() != 0 {
				t.Fatalf("Adjacency(999) returned %d neighbours, want 0", out.Len())
			}
		})
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if md, err := g.Metadata(7); err != nil || md != 0 {
				t.Fatalf("default Metadata = %d, %v; want 0, nil", md, err)
			}
			if err := g.SetMetadata(7, 42); err != nil {
				t.Fatalf("SetMetadata: %v", err)
			}
			if md, err := g.Metadata(7); err != nil || md != 42 {
				t.Fatalf("Metadata = %d, %v; want 42, nil", md, err)
			}
			if ok := graphdb.ResetMetadata(g); !ok {
				t.Fatalf("backend does not support metadata reset")
			}
			if md, _ := g.Metadata(7); md != 0 {
				t.Fatalf("Metadata after reset = %d, want 0", md)
			}
		})
	}
}

func TestMetadataFilterOps(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
	}
	// metadata: 1->10, 2->20, 3->20, 4 unset (0)
	cases := []struct {
		op   graphdb.MetaOp
		ref  int32
		want []graph.VertexID
	}{
		{graphdb.MetaIgnore, 20, []graph.VertexID{1, 2, 3, 4}},
		{graphdb.MetaEqual, 20, []graph.VertexID{2, 3}},
		{graphdb.MetaNotEqual, 20, []graph.VertexID{1, 4}},
		{graphdb.MetaGreater, 10, []graph.VertexID{2, 3}},
		{graphdb.MetaLess, 10, []graph.VertexID{4}},
	}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for v, md := range map[graph.VertexID]int32{1: 10, 2: 20, 3: 20} {
				if err := g.SetMetadata(v, md); err != nil {
					t.Fatalf("SetMetadata: %v", err)
				}
			}
			for _, tc := range cases {
				out := graph.NewAdjList(4)
				if err := g.AdjacencyUsingMetadata(0, out, tc.ref, tc.op); err != nil {
					t.Fatalf("op %v: %v", tc.op, err)
				}
				if got := sortedIDs(out); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("op %v ref %d = %v, want %v", tc.op, tc.ref, got, tc.want)
				}
			}
		})
	}
}

// TestAgainstReferenceModel ingests a scale-free graph in randomized
// batches and checks every vertex's adjacency against an in-memory map.
func TestAgainstReferenceModel(t *testing.T) {
	cfg := gen.Config{Name: "conformance", Vertices: 400, M: 3, HubFraction: 0.2, Seed: 99}
	edges, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ref := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range edges {
		ref[e.Src] = append(ref[e.Src], e.Dst)
	}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			// Store in uneven batches to exercise chain growth.
			rng := gen.NewRNG(7)
			for i := 0; i < len(edges); {
				n := int(rng.Int63n(37)) + 1
				if i+n > len(edges) {
					n = len(edges) - i
				}
				if err := g.StoreEdges(edges[i : i+n]); err != nil {
					t.Fatalf("StoreEdges batch at %d: %v", i, err)
				}
				i += n
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			out := graph.NewAdjList(64)
			for v := graph.VertexID(0); v < graph.VertexID(cfg.Vertices); v++ {
				out.Reset()
				if err := graphdb.Adjacency(g, v, out); err != nil {
					t.Fatalf("Adjacency(%d): %v", v, err)
				}
				got := sortedIDs(out)
				want := append([]graph.VertexID(nil), ref[v]...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(want) == 0 {
					want = nil
				}
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Adjacency(%d) = %d ids, want %d ids\n got: %v\nwant: %v",
						v, len(got), len(want), got, want)
				}
			}
		})
	}
}

// TestBatchMatchesPerVertex checks AdjacencyBatch against the union of
// per-vertex retrievals, for backends with and without the fast path.
func TestBatchMatchesPerVertex(t *testing.T) {
	cfg := gen.Config{Name: "batch", Vertices: 200, M: 3, Seed: 5}
	edges, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	fringe := []graph.VertexID{0, 3, 17, 42, 100, 199}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			batched := graph.NewAdjList(64)
			if err := graphdb.AdjacencyBatch(g, fringe, batched, 0, graphdb.MetaIgnore); err != nil {
				t.Fatalf("AdjacencyBatch: %v", err)
			}
			single := graph.NewAdjList(64)
			for _, v := range fringe {
				if err := graphdb.Adjacency(g, v, single); err != nil {
					t.Fatalf("Adjacency(%d): %v", v, err)
				}
			}
			if got, want := sortedIDs(batched), sortedIDs(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch = %v, per-vertex = %v", got, want)
			}
		})
	}
}

// TestPersistenceAcrossReopen verifies the out-of-core backends survive a
// close/reopen cycle.
func TestPersistenceAcrossReopen(t *testing.T) {
	for _, name := range []string{"mysql", "bdb", "stream", "grdb"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			g, err := graphdb.Open(name, graphdb.Options{Dir: dir})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			edges := []graph.Edge{{Src: 5, Dst: 6}, {Src: 5, Dst: 7}, {Src: 6, Dst: 5}}
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			g2, err := graphdb.Open(name, graphdb.Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer g2.Close()
			out := graph.NewAdjList(4)
			if err := graphdb.Adjacency(g2, 5, out); err != nil {
				t.Fatalf("Adjacency after reopen: %v", err)
			}
			if got, want := sortedIDs(out), []graph.VertexID{6, 7}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after reopen Adjacency(5) = %v, want %v", got, want)
			}
		})
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g, err := graphdb.Open(name, graphdb.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := g.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, mdErr := g.Metadata(1)
			for op, err := range map[string]error{
				"StoreEdges":  g.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}}),
				"Adjacency":   graphdb.Adjacency(g, 1, graph.NewAdjList(1)),
				"Metadata":    mdErr,
				"SetMetadata": g.SetMetadata(1, 7),
				"Flush":       g.Flush(),
			} {
				if !errors.Is(err, graphdb.ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", op, err)
				}
			}
			// Close is idempotent.
			if err := g.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

func TestInvalidVertexRejected(t *testing.T) {
	bad := graph.Edge{Src: -1, Dst: 2}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges([]graph.Edge{bad}); err == nil {
				t.Fatal("StoreEdges of negative vertex succeeded, want error")
			}
		})
	}
}

// TestInvalidBatchStoresNothing: a batch is validated whole before any
// of it reaches storage, so one invalid edge leaves the back-end as it
// was, and the next valid batch stores only itself.
func TestInvalidBatchStoresNothing(t *testing.T) {
	batch := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: -1, Dst: 2}}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges(batch); err == nil {
				t.Fatal("StoreEdges of a batch with a negative vertex succeeded, want error")
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if n := g.Stats().EdgesStored; n != 0 {
				t.Fatalf("EdgesStored = %d after the rejected batch, want 0", n)
			}
			out := graph.NewAdjList(4)
			if err := graphdb.Adjacency(g, 0, out); err != nil {
				t.Fatalf("Adjacency(0): %v", err)
			}
			if out.Len() != 0 {
				t.Fatalf("Adjacency(0) = %v after the rejected batch, want none", out.IDs())
			}
			if err := g.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			out.Reset()
			if err := graphdb.Adjacency(g, 0, out); err != nil || out.Len() != 0 {
				t.Fatalf("Adjacency(0) = %v, %v after a valid batch, want none", out.IDs(), err)
			}
			if n := g.Stats().EdgesStored; n != 1 {
				t.Fatalf("EdgesStored = %d after one valid edge, want 1", n)
			}
		})
	}
}

func TestStatsCount(t *testing.T) {
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 0}}
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			out := graph.NewAdjList(4)
			if err := graphdb.Adjacency(g, 0, out); err != nil {
				t.Fatalf("Adjacency: %v", err)
			}
			s := g.Stats()
			if s.EdgesStored != 3 {
				t.Errorf("EdgesStored = %d, want 3", s.EdgesStored)
			}
			if s.AdjacencyCalls < 1 {
				t.Errorf("AdjacencyCalls = %d, want >= 1", s.AdjacencyCalls)
			}
			if s.NeighborsReturned != 2 {
				t.Errorf("NeighborsReturned = %d, want 2", s.NeighborsReturned)
			}
		})
	}
}

// TestQuickAdjacencyInvariant is a property-based check: for arbitrary
// small edge multisets, stored-then-retrieved adjacency equals the
// reference multiset, on every backend.
func TestQuickAdjacencyInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	type compactEdge struct {
		Src uint8
		Dst uint8
	}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			check := func(raw []compactEdge) bool {
				g, err := graphdb.Open(name, graphdb.Options{Dir: t.TempDir()})
				if err != nil {
					t.Logf("open: %v", err)
					return false
				}
				defer g.Close()
				ref := make(map[graph.VertexID][]graph.VertexID)
				edges := make([]graph.Edge, len(raw))
				for i, ce := range raw {
					e := graph.Edge{Src: graph.VertexID(ce.Src), Dst: graph.VertexID(ce.Dst)}
					edges[i] = e
					ref[e.Src] = append(ref[e.Src], e.Dst)
				}
				if err := g.StoreEdges(edges); err != nil {
					t.Logf("StoreEdges: %v", err)
					return false
				}
				if err := g.Flush(); err != nil {
					t.Logf("Flush: %v", err)
					return false
				}
				for v, want := range ref {
					out := graph.NewAdjList(len(want))
					if err := graphdb.Adjacency(g, v, out); err != nil {
						t.Logf("Adjacency(%d): %v", v, err)
						return false
					}
					got := sortedIDs(out)
					sorted := append([]graph.VertexID(nil), want...)
					sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
					if !reflect.DeepEqual(got, sorted) {
						t.Logf("Adjacency(%d) = %v, want %v", v, got, sorted)
						return false
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 12}
			if err := quick.Check(check, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// Ensure every backend opens with a distinct description string in the
// error message for unknown names (guards the registry error path).
func TestOpenUnknownBackend(t *testing.T) {
	_, err := graphdb.Open("no-such-db", graphdb.Options{})
	if err == nil {
		t.Fatal("Open of unknown backend succeeded")
	}
	if want := fmt.Sprintf("%v", graphdb.Backends()); !containsAll(err.Error(), want) {
		t.Fatalf("error %q does not list backends %q", err, want)
	}
}

func containsAll(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
