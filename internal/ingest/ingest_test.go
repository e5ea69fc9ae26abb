package ingest

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/datacutter"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
	"mssg/internal/obs"
)

func TestVertexModPolicy(t *testing.T) {
	p := VertexMod{}
	if !p.GloballyMapped() {
		t.Fatal("VertexMod must be globally mapped")
	}
	for v := graph.VertexID(0); v < 50; v++ {
		got := p.Route(graph.Edge{Src: v, Dst: 0}, 8)
		if got != int(v%8) {
			t.Fatalf("Route(%d) = %d", v, got)
		}
	}
}

func TestEdgeRoundRobinPolicy(t *testing.T) {
	p := &EdgeRoundRobin{}
	if p.GloballyMapped() {
		t.Fatal("EdgeRoundRobin must not claim a global mapping")
	}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, p.Route(graph.Edge{Src: 99, Dst: 1}, 3))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round robin sequence = %v", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for name, mapped := range map[string]bool{
		"vertex-mod": true, "vertex": true, "": true,
		"edge-round-robin": false, "edge": false,
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.GloballyMapped() != mapped {
			t.Fatalf("PolicyByName(%q).GloballyMapped() = %v", name, p.GloballyMapped())
		}
	}
	if _, err := PolicyByName("nonsense"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEdgeCodecRoundTrip(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 42, Dst: graph.MaxVertexID}}
	_, _, got, err := decodeWindow(encodeWindow(0, 1, edges))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edges) {
		t.Fatalf("round trip = %v", got)
	}
	if _, _, _, err := decodeWindow(make([]byte, windowHeaderBytes+3)); err == nil {
		t.Fatal("misaligned payload accepted")
	}
}

type sliceReader struct {
	edges []graph.Edge
	pos   int
}

func (r *sliceReader) ReadEdge() (graph.Edge, error) {
	if r.pos >= len(r.edges) {
		return graph.Edge{}, io.EOF
	}
	e := r.edges[r.pos]
	r.pos++
	return e, nil
}

// runIngestion drives the full filter graph over an in-process fabric.
func runIngestion(t *testing.T, cfg Config, edges []graph.Edge, backends int) ([]graphdb.Graph, *Stats) {
	t.Helper()
	cfg.Backends = backends
	fab := cluster.NewInProc(backends, 0)
	t.Cleanup(func() { fab.Close() })
	dbs := make([]graphdb.Graph, backends)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	stats := &Stats{}
	g := datacutter.NewGraph()
	f := cfg.FrontEnds
	err := BuildGraph(g, cfg, stats,
		func(copy int) (graph.EdgeReader, error) {
			lo := len(edges) * copy / f
			hi := len(edges) * (copy + 1) / f
			return &sliceReader{edges: edges[lo:hi]}, nil
		},
		func(copy int) graphdb.Graph { return dbs[copy] },
		datacutter.PlaceCopies(f),
		datacutter.PlaceOnePerNode(),
	)
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	if err := datacutter.NewRuntime(fab).Run(g); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dbs, stats
}

func testEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 40), Dst: graph.VertexID((i + 7) % 40)}
	}
	return edges
}

func TestVertexDeclusteringPlacesAdjacencyOnOwner(t *testing.T) {
	edges := testEdges(200)
	dbs, stats := runIngestion(t, Config{FrontEnds: 2, WindowEdges: 16}, edges, 4)
	if stats.EdgesIn.Load() != 200 || stats.EdgesStored.Load() != 200 {
		t.Fatalf("stats: in=%d stored=%d", stats.EdgesIn.Load(), stats.EdgesStored.Load())
	}
	// Every vertex's adjacency must live only on node v % 4.
	out := graph.NewAdjList(16)
	for v := graph.VertexID(0); v < 40; v++ {
		for node := 0; node < 4; node++ {
			out.Reset()
			if err := graphdb.Adjacency(dbs[node], v, out); err != nil {
				t.Fatal(err)
			}
			if node == int(v)%4 {
				if out.Len() == 0 {
					t.Fatalf("owner node %d has no adjacency for %d", node, v)
				}
			} else if out.Len() != 0 {
				t.Fatalf("non-owner node %d holds adjacency for %d", node, v)
			}
		}
	}
}

func TestAddReverseStoresBothOrientations(t *testing.T) {
	edges := []graph.Edge{{Src: 1, Dst: 2}}
	dbs, stats := runIngestion(t, Config{FrontEnds: 1, AddReverse: true}, edges, 2)
	if stats.EdgesStored.Load() != 2 {
		t.Fatalf("stored %d records, want 2", stats.EdgesStored.Load())
	}
	out := graph.NewAdjList(4)
	if err := graphdb.Adjacency(dbs[1], 1, out); err != nil { // 1 % 2 = 1
		t.Fatal(err)
	}
	if out.Len() != 1 || out.At(0) != 2 {
		t.Fatalf("forward adjacency = %v", out.IDs())
	}
	out.Reset()
	if err := graphdb.Adjacency(dbs[0], 2, out); err != nil { // 2 % 2 = 0
		t.Fatal(err)
	}
	if out.Len() != 1 || out.At(0) != 1 {
		t.Fatalf("reverse adjacency = %v", out.IDs())
	}
}

func TestSelfLoopNotDoubledByAddReverse(t *testing.T) {
	edges := []graph.Edge{{Src: 3, Dst: 3}}
	_, stats := runIngestion(t, Config{FrontEnds: 1, AddReverse: true}, edges, 2)
	if stats.EdgesStored.Load() != 1 {
		t.Fatalf("self loop stored %d times, want 1", stats.EdgesStored.Load())
	}
}

func TestWindowingShipsPartialWindows(t *testing.T) {
	// 10 edges, window 64: everything must still arrive (flush on EOF).
	edges := testEdges(10)
	dbs, stats := runIngestion(t, Config{FrontEnds: 1, WindowEdges: 64}, edges, 2)
	if stats.EdgesStored.Load() != 10 {
		t.Fatalf("stored %d, want 10", stats.EdgesStored.Load())
	}
	var total int64
	for _, db := range dbs {
		total += db.Stats().EdgesStored
	}
	if total != 10 {
		t.Fatalf("backends hold %d records", total)
	}
	if stats.Blocks.Load() == 0 {
		t.Fatal("no blocks shipped")
	}
}

func TestSmallWindowsManyBlocks(t *testing.T) {
	edges := testEdges(100)
	_, statsBig := runIngestion(t, Config{FrontEnds: 1, WindowEdges: 1000}, edges, 2)
	_, statsSmall := runIngestion(t, Config{FrontEnds: 1, WindowEdges: 4}, edges, 2)
	if statsSmall.Blocks.Load() <= statsBig.Blocks.Load() {
		t.Fatalf("window 4 shipped %d blocks, window 1000 shipped %d",
			statsSmall.Blocks.Load(), statsBig.Blocks.Load())
	}
}

func TestEdgePolicyDistributesAcrossBackends(t *testing.T) {
	edges := testEdges(120)
	dbs, _ := runIngestion(t, Config{
		FrontEnds: 1,
		Policy:    func() Policy { return &EdgeRoundRobin{} },
	}, edges, 3)
	var counts []int64
	for _, db := range dbs {
		counts = append(counts, db.Stats().EdgesStored)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	if counts[0] != 40 || counts[2] != 40 {
		t.Fatalf("edge round-robin distribution uneven: %v", counts)
	}
}

func TestEdgeRoundRobinSeedCopy(t *testing.T) {
	// Copy i must open its cycle on back-end i, not 0.
	for copy := 0; copy < 3; copy++ {
		p := &EdgeRoundRobin{}
		p.SeedCopy(copy)
		if got := p.Route(graph.Edge{Src: 1, Dst: 2}, 3); got != copy {
			t.Fatalf("copy %d first route = %d", copy, got)
		}
	}
}

func TestEdgePolicyBalancedAcrossFrontEnds(t *testing.T) {
	// 3 front-ends × 4 edges each over 3 back-ends: every copy's cycle
	// has a one-edge remainder. Unseeded, all three remainders land on
	// back-end 0 (6/3/3); seeded by copy index they interleave (4/4/4).
	edges := testEdges(12)
	dbs, _ := runIngestion(t, Config{
		FrontEnds: 3,
		Policy:    func() Policy { return &EdgeRoundRobin{} },
	}, edges, 3)
	for i, db := range dbs {
		if n := db.Stats().EdgesStored; n != 4 {
			counts := make([]int64, len(dbs))
			for j, d := range dbs {
				counts[j] = d.Stats().EdgesStored
			}
			t.Fatalf("back-end %d stored %d edges, want 4 (distribution %v)", i, n, counts)
		}
	}
}

func TestBuildGraphValidation(t *testing.T) {
	g := datacutter.NewGraph()
	err := BuildGraph(g, Config{FrontEnds: 0, Backends: 2}, &Stats{},
		nil, nil, datacutter.PlaceCopies(1), datacutter.PlaceOnePerNode())
	if err == nil {
		t.Fatal("zero front-ends accepted")
	}
}

func TestInvalidEdgeFailsIngestion(t *testing.T) {
	fab := cluster.NewInProc(2, 0)
	defer fab.Close()
	dbs := []graphdb.Graph{hashdb.New(), hashdb.New()}
	stats := &Stats{}
	g := datacutter.NewGraph()
	cfg := Config{FrontEnds: 1, Backends: 2}
	err := BuildGraph(g, cfg, stats,
		func(copy int) (graph.EdgeReader, error) {
			return &sliceReader{edges: []graph.Edge{{Src: -5, Dst: 1}}}, nil
		},
		func(copy int) graphdb.Graph { return dbs[copy] },
		datacutter.PlaceCopies(1),
		datacutter.PlaceOnePerNode(),
	)
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	if err := datacutter.NewRuntime(fab).Run(g); err == nil {
		t.Fatal("invalid edge ingested without error")
	}
}

// TestWindowFraming pins how many windows each shipping path cuts and
// where they go, for a small deterministic input: per-destination edge
// counts, windows shipped, secondary copies and standby windows stored,
// unreplicated and k = 2 rendezvous, plus the window count of a live
// join. Any change to how edges are grouped into windows moves one of
// these numbers.
func TestWindowFraming(t *testing.T) {
	const backends = 3
	edges := migTestEdges(101, 30, 3)
	reg := obs.Default()
	destEdges := func() []int64 {
		out := make([]int64, backends)
		for d := range out {
			out[d] = reg.Counter(fmt.Sprintf("ingest.dest_%02d.edges", d)).Value()
		}
		return out
	}
	for _, tc := range []struct {
		name                                  string
		cfg                                   Config
		blocks, replicaBlocks, replicaWindows int64
		dest                                  []int64
	}{
		{name: "unreplicated", cfg: Config{FrontEnds: 1, WindowEdges: 4, AddReverse: true},
			blocks: 51, replicaBlocks: 0, replicaWindows: 0, dest: []int64{58, 69, 72}},
		{name: "rendezvous-k2", cfg: Config{FrontEnds: 1, WindowEdges: 4, AddReverse: true,
			Policy: func() Policy { return NewRendezvous(backends, 2, 11) }, ReplicationFactor: 2},
			blocks: 53, replicaBlocks: 53, replicaWindows: 53, dest: []int64{50, 64, 85}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := destEdges()
			_, stats := runIngestion(t, tc.cfg, edges, backends)
			after := destEdges()
			dest := make([]int64, backends)
			for d := range dest {
				dest[d] = after[d] - before[d]
			}
			got := []int64{stats.Blocks.Load(), stats.ReplicaBlocks.Load(), stats.ReplicaWindows.Load()}
			if want := []int64{tc.blocks, tc.replicaBlocks, tc.replicaWindows}; !reflect.DeepEqual(got, want) {
				t.Errorf("{Blocks, ReplicaBlocks, ReplicaWindows} = %v, want %v", got, want)
			}
			if !reflect.DeepEqual(dest, tc.dest) {
				t.Errorf("ingest.dest_NN.edges = %v, want %v", dest, tc.dest)
			}
		})
	}

	t.Run("join", func(t *testing.T) {
		base := Placement{Policy: "rendezvous", Backends: 3, Replication: 2, Seed: 42}
		holder, err := NewPlacementHolder("", Manifest{Committed: base})
		if err != nil {
			t.Fatal(err)
		}
		oldRP, _ := replicaPolicyFor(base)
		dbs := hashCluster(4)
		seedReplicated(t, dbs, oldRP, migTestEdges(400, 60, 7))
		f := cluster.NewInProc(4, 0)
		defer f.Close()
		target, err := holder.JoinTarget(3)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Migrate(f, dbs, holder, target, MigrationConfig{WindowEdges: 8})
		if err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		if stats.Windows != 26 {
			t.Errorf("MigrationStats.Windows = %d, want 26 (%+v)", stats.Windows, stats)
		}
	})
}
