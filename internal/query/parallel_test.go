package query

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
)

// TestParallelMatchesSerialBFS is the deterministic cross-check: on
// scale-free graphs, BFS with Workers=4 must report exactly what
// Workers=1 reports — for both ownership modes and both algorithm
// variants. Level-synchronous fringes are sets, so every BFSResult
// field (including the work counters) is independent of the
// scheduling-dependent order workers discover vertices in.
func TestParallelMatchesSerialBFS(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "par", Vertices: 600, M: 2, HubFraction: 0.15, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	cases := []struct {
		name      string
		ownership Ownership
		pipelined bool
	}{
		{"known-mapping/levelsync", KnownMapping, false},
		{"known-mapping/pipelined", KnownMapping, true},
		{"broadcast/levelsync", BroadcastFringe, false},
		{"broadcast/pipelined", BroadcastFringe, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := cluster.NewInProc(p, 0)
			defer f.Close()
			var dbs = partition(t, edges, p)
			if tc.ownership == BroadcastFringe {
				dbs = scatter(t, edges, p)
			}
			for dest := graph.VertexID(1); dest < 600; dest += 61 {
				base := BFSConfig{
					Source: 0, Dest: dest,
					Routing: Routing{Ownership: tc.ownership}, Pipelined: tc.pipelined,
					// Small threshold so the pipelined run actually
					// exercises mid-level chunk sends from workers.
					Threshold: 8,
				}
				serial := base
				serial.Workers = 1
				want, err := ParallelBFS(context.Background(), f, dbs, serial)
				if err != nil {
					t.Fatalf("serial BFS 0->%d: %v", dest, err)
				}
				par := base
				par.Workers = 4
				got, err := ParallelBFS(context.Background(), f, dbs, par)
				if err != nil {
					t.Fatalf("parallel BFS 0->%d: %v", dest, err)
				}
				if tc.pipelined && tc.ownership == BroadcastFringe {
					// FringeSent is timing-dependent here regardless of
					// Workers: a broadcast vertex that arrives mid-level
					// is marked before local expansion re-discovers it,
					// suppressing the re-broadcast. Every other field is
					// a function of the (deterministic) level sets.
					got.FringeSent, want.FringeSent = 0, 0
				}
				// Per-level latencies are wall-clock measurements, not
				// functions of the level sets; blank them before the
				// deterministic-equality check.
				for i := range got.LevelStats {
					got.LevelStats[i].ExpandNs, got.LevelStats[i].TotalNs = 0, 0
				}
				for i := range want.LevelStats {
					want.LevelStats[i].ExpandNs, want.LevelStats[i].TotalNs = 0, 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("0->%d: workers=4 returned %+v, workers=1 returned %+v", dest, got, want)
				}
			}
		})
	}
}

// TestParallelReturnPathFallsBackToSerial: ReturnPath queries need
// per-vertex parent attribution, so Workers>1 must silently fall back
// to the serial loop and still reconstruct a correct path.
func TestParallelReturnPathFallsBackToSerial(t *testing.T) {
	edges := chainEdges(12)
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	dbs := partition(t, edges, 3)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: 12, ReturnPath: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Path) != 13 {
		t.Fatalf("found=%v path=%v, want the 13-vertex chain", res.Found, res.Path)
	}
	for i, v := range res.Path {
		if v != graph.VertexID(i) {
			t.Fatalf("path[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestMemVisitedConcurrentMarks hammers MarkIfNew from 8 goroutines
// over ids spread across several pages and the overflow range, each
// goroutine starting at a different id so page installs race too: each
// vertex must be won exactly once, and Count must equal the number of
// distinct vertices.
func TestMemVisitedConcurrentMarks(t *testing.T) {
	const (
		goroutines = 8
		vertices   = 5000
	)
	id := func(i int) graph.VertexID {
		switch i % 8 {
		case 3:
			return 1<<32 + graph.VertexID(i)
		case 7:
			return -graph.VertexID(i)
		}
		return graph.VertexID(i) * 97 // 0..485k: eight pages
	}
	s := NewMemVisited()
	wins := make([]int64, vertices) // slot per vertex, counted after join
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make([]int64, vertices)
			for j := 0; j < vertices; j++ {
				i := (j + g*vertices/goroutines) % vertices
				isNew, err := s.MarkIfNew(id(i), 3)
				if err != nil {
					t.Errorf("MarkIfNew: %v", err)
					return
				}
				if isNew {
					local[i]++
				}
			}
			mu.Lock()
			for i, n := range local {
				wins[i] += n
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for i, n := range wins {
		if n != 1 {
			t.Fatalf("vertex %d marked new %d times, want exactly 1", id(i), n)
		}
	}
	if s.Count() != vertices {
		t.Fatalf("Count() = %d, want %d", s.Count(), vertices)
	}
	for _, i := range []int{7, 11, 4999} {
		if l, _ := s.Level(id(i)); l != 3 {
			t.Fatalf("Level(%d) = %d, want 3", id(i), l)
		}
	}
}

// TestEnsureConcurrentVisited: MemVisited passes through unwrapped;
// other structures get the mutex wrapper.
func TestEnsureConcurrentVisited(t *testing.T) {
	m := NewMemVisited()
	if got := ensureConcurrentVisited(m); got != Visited(m) {
		t.Fatalf("MemVisited was wrapped; want pass-through")
	}
	e, err := NewExtVisited(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := ensureConcurrentVisited(e)
	if w == Visited(e) {
		t.Fatalf("ExtVisited passed through unwrapped")
	}
	// The wrapper must serialize: concurrent read-modify-writes of one
	// cached block would trip the race detector without it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 0; v < 500; v++ {
				if _, err := w.MarkIfNew(graph.VertexID(v), 1); err != nil {
					t.Errorf("MarkIfNew: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.Count() != 500 {
		t.Fatalf("Count() = %d, want 500", w.Count())
	}
}
