package graphdb_test

// Parallel-read section of the conformance suite: every backend's readers
// are concurrency-safe, so each must survive 8 goroutines of mixed read
// traffic under -race, answering exactly what the serial baseline
// answered.

import (
	"reflect"
	"sync"
	"testing"

	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// TestConcurrentReaderStress seeds a scale-free graph plus metadata,
// records a serial baseline of every read the workers will issue, then
// hammers the backend from 8 goroutines with mixed Adjacency /
// filtered-Adjacency / Degree / Metadata reads and checks each answer
// against the baseline. Run it with -race: the assertions catch torn
// results, the detector catches unsynchronized state on the read path.
func TestConcurrentReaderStress(t *testing.T) {
	const (
		readers = 8
		iters   = 40
	)
	cfg := gen.Config{Name: "concurrent", Vertices: 300, M: 3, HubFraction: 0.2, Seed: 1234}
	edges, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "stream" {
				t.Skip("full log scan per read is slow in -short mode")
			}
			g := openBackend(t, name)
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			// Metadata on every third vertex, set before the parallel
			// phase (SetMetadata is a mutator).
			for v := graph.VertexID(0); v < graph.VertexID(cfg.Vertices); v += 3 {
				if err := g.SetMetadata(v, int32(v%7)); err != nil {
					t.Fatalf("SetMetadata(%d): %v", v, err)
				}
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}

			// Serial baseline over every vertex.
			type baseline struct {
				adj      []graph.VertexID
				filtered []graph.VertexID
				degree   int64
				md       int32
			}
			base := make([]baseline, cfg.Vertices)
			for v := range base {
				out := graph.NewAdjList(8)
				if err := graphdb.Adjacency(g, graph.VertexID(v), out); err != nil {
					t.Fatalf("baseline Adjacency(%d): %v", v, err)
				}
				base[v].adj = sortedIDs(out)
				out.Reset()
				if err := g.AdjacencyUsingMetadata(graph.VertexID(v), out, 2, graphdb.MetaGreater); err != nil {
					t.Fatalf("baseline filtered Adjacency(%d): %v", v, err)
				}
				base[v].filtered = sortedIDs(out)
				deg, err := graphdb.Degree(g, graph.VertexID(v))
				if err != nil {
					t.Fatalf("baseline Degree(%d): %v", v, err)
				}
				base[v].degree = deg
				md, err := g.Metadata(graph.VertexID(v))
				if err != nil {
					t.Fatalf("baseline Metadata(%d): %v", v, err)
				}
				base[v].md = md
			}

			perReader := iters
			if name == "stream" {
				// Every read is a full log scan; keep wall time sane.
				perReader = 6
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := gen.NewRNG(int64(1000 + r))
					out := graph.NewAdjList(8)
					for i := 0; i < perReader; i++ {
						v := graph.VertexID(rng.Int63n(int64(cfg.Vertices)))
						switch i % 4 {
						case 0:
							out.Reset()
							if err := graphdb.Adjacency(g, v, out); err != nil {
								t.Errorf("reader %d: Adjacency(%d): %v", r, v, err)
								return
							}
							if got := sortedIDs(out); !reflect.DeepEqual(got, base[v].adj) {
								t.Errorf("reader %d: Adjacency(%d) = %v, want %v", r, v, got, base[v].adj)
								return
							}
						case 1:
							out.Reset()
							if err := g.AdjacencyUsingMetadata(v, out, 2, graphdb.MetaGreater); err != nil {
								t.Errorf("reader %d: filtered Adjacency(%d): %v", r, v, err)
								return
							}
							if got := sortedIDs(out); !reflect.DeepEqual(got, base[v].filtered) {
								t.Errorf("reader %d: filtered Adjacency(%d) = %v, want %v", r, v, got, base[v].filtered)
								return
							}
						case 2:
							deg, err := graphdb.Degree(g, v)
							if err != nil {
								t.Errorf("reader %d: Degree(%d): %v", r, v, err)
								return
							}
							if deg != base[v].degree {
								t.Errorf("reader %d: Degree(%d) = %d, want %d", r, v, deg, base[v].degree)
								return
							}
						case 3:
							md, err := g.Metadata(v)
							if err != nil {
								t.Errorf("reader %d: Metadata(%d): %v", r, v, err)
								return
							}
							if md != base[v].md {
								t.Errorf("reader %d: Metadata(%d) = %d, want %d", r, v, md, base[v].md)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()

			// Stats must have absorbed every reader's counts without loss:
			// at least the baseline's calls plus the workers' adjacency
			// reads (exact counts differ per backend batch strategy).
			if st := g.Stats(); st.AdjacencyCalls <= 0 {
				t.Fatalf("Stats().AdjacencyCalls = %d after concurrent reads", st.AdjacencyCalls)
			}
		})
	}
}

// TestConcurrentBatchReaders exercises the BatchGraph path (StreamDB's
// whole-fringe scan) from multiple goroutines at once.
func TestConcurrentBatchReaders(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 0},
	}
	fringe := []graph.VertexID{0, 1, 2, 3, 4}
	want := []graph.VertexID{0, 1, 2, 3, 3, 4}
	for _, name := range allBackends() {
		t.Run(name, func(t *testing.T) {
			g := openBackend(t, name)
			if err := g.StoreEdges(edges); err != nil {
				t.Fatalf("StoreEdges: %v", err)
			}
			if err := g.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			var wg sync.WaitGroup
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						out := graph.NewAdjList(8)
						if err := graphdb.AdjacencyBatch(g, fringe, out, 0, graphdb.MetaIgnore); err != nil {
							t.Errorf("reader %d: AdjacencyBatch: %v", r, err)
							return
						}
						if got := sortedIDs(out); !reflect.DeepEqual(got, want) {
							t.Errorf("reader %d: AdjacencyBatch = %v, want %v", r, got, want)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}
