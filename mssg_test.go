package mssg_test

import (
	"reflect"
	"testing"

	"mssg"
	"mssg/internal/ingest"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	eng, err := mssg.New(mssg.Config{
		Backends: 3,
		Backend:  "grdb",
		Dir:      t.TempDir(),
		Ingest:   mssg.IngestConfig{AddReverse: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Close()

	edges := []mssg.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	}
	if _, err := eng.IngestEdges(edges); err != nil {
		t.Fatalf("IngestEdges: %v", err)
	}
	res, err := eng.BFS(mssg.BFSConfig{Source: 0, Dest: 3})
	if err != nil {
		t.Fatalf("BFS: %v", err)
	}
	if !res.Found || res.PathLength != 3 {
		t.Fatalf("BFS = %+v, want found at length 3", res)
	}
}

func TestPublicBackendsAndAnalyses(t *testing.T) {
	want := []string{"array", "bdb", "grdb", "hashmap", "mysql", "stream"}
	if got := mssg.Backends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Backends = %v", got)
	}
	analyses := mssg.Analyses()
	if len(analyses) == 0 || analyses[0] != "bfs" {
		t.Fatalf("Analyses = %v", analyses)
	}
}

func TestPublicGenerators(t *testing.T) {
	cfg := mssg.PubMedS(0.0005)
	edges, err := mssg.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	stats, err := mssg.ComputeStats(cfg.Name, edges, cfg.Vertices)
	if err != nil {
		t.Fatalf("ComputeStats: %v", err)
	}
	if stats.AvgDegree < 10 || stats.AvgDegree > 20 {
		t.Fatalf("avg degree %f outside PubMed-S-like range", stats.AvgDegree)
	}
	// The hub must dominate, as in Table 5.1.
	if float64(stats.MaxDegree) < 0.1*float64(stats.Vertices) {
		t.Fatalf("max degree %d too small for a PubMed-like hub (V=%d)", stats.MaxDegree, stats.Vertices)
	}
	for _, mk := range []func(float64) mssg.GenConfig{mssg.PubMedL, mssg.Syn2B} {
		if _, err := mssg.Generate(mk(0.0001)); err != nil {
			t.Fatalf("preset generate: %v", err)
		}
	}
}

func TestPublicOntology(t *testing.T) {
	o := mssg.NewOntology()
	a := o.DefineVertexType("A")
	b := o.DefineVertexType("B")
	r := o.DefineEdgeType("rel")
	o.AllowSymmetric(a, r, b)
	ok := mssg.TypedEdge{Edge: mssg.Edge{Src: 1, Dst: 2}, SrcType: a, EdgeType: r, DstType: b}
	if err := o.Validate(ok); err != nil {
		t.Fatalf("legal edge rejected: %v", err)
	}
	bad := mssg.TypedEdge{Edge: mssg.Edge{Src: 1, Dst: 2}, SrcType: a, EdgeType: r, DstType: a}
	if err := o.Validate(bad); err == nil {
		t.Fatal("illegal edge accepted")
	}
}

func TestPublicAnalysisViaRegistry(t *testing.T) {
	eng, err := mssg.New(mssg.Config{Backends: 2, Backend: "hashmap"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.IngestEdges([]mssg.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	out, err := eng.RunAnalysis("bfs", map[string]string{"source": "0", "dest": "2", "broadcast": "true"})
	if err != nil {
		t.Fatalf("RunAnalysis: %v", err)
	}
	res := out.(mssg.BFSResult)
	if !res.Found || res.PathLength != 2 {
		t.Fatalf("analysis = %+v", res)
	}
}

func TestPublicKHopAndComponent(t *testing.T) {
	eng, err := mssg.New(mssg.Config{
		Backends: 3,
		Backend:  "hashmap",
		Ingest:   mssg.IngestConfig{AddReverse: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A 5-chain: 0-1-2-3-4-5.
	var edges []mssg.Edge
	for i := 0; i < 5; i++ {
		edges = append(edges, mssg.Edge{Src: mssg.VertexID(i), Dst: mssg.VertexID(i + 1)})
	}
	if _, err := eng.IngestEdges(edges); err != nil {
		t.Fatal(err)
	}
	kh, err := mssg.KHop(eng, mssg.KHopConfig{Source: 0, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kh.Total != 3 {
		t.Fatalf("KHop total = %d, want 3", kh.Total)
	}
	comp, err := mssg.Component(eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Size != 6 {
		t.Fatalf("component size = %d, want 6", comp.Size)
	}
}

// TestPublicKHopAndComponentFollowPolicy: a policy with no global
// vertex→node mapping scatters each vertex's edges over every node, so
// KHop and Component must broadcast the fringe exactly as Engine.KHop
// does; owner routing would see only the owner's share of each list.
func TestPublicKHopAndComponentFollowPolicy(t *testing.T) {
	eng, err := mssg.New(mssg.Config{
		Backends: 4,
		Backend:  "hashmap",
		Ingest: mssg.IngestConfig{
			AddReverse: true,
			Policy:     func() mssg.IngestPolicy { return &ingest.EdgeRoundRobin{} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A path 0-1-...-40 plus a 40-leaf star on 0 (leaves 41..80).
	var edges []mssg.Edge
	for i := 0; i < 40; i++ {
		edges = append(edges, mssg.Edge{Src: mssg.VertexID(i), Dst: mssg.VertexID(i + 1)})
		edges = append(edges, mssg.Edge{Src: 0, Dst: mssg.VertexID(41 + i)})
	}
	if _, err := eng.IngestEdges(edges); err != nil {
		t.Fatal(err)
	}
	cfg := mssg.KHopConfig{Source: 0, K: 3}
	want, err := eng.KHop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total != 43 {
		t.Fatalf("Engine.KHop total = %d, want 43", want.Total)
	}
	kh, err := mssg.KHop(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kh.Total != want.Total {
		t.Fatalf("mssg.KHop total = %d, Engine.KHop = %d", kh.Total, want.Total)
	}
	comp, err := mssg.Component(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Size != 81 || comp.Eccentricity != 40 {
		t.Fatalf("component = %+v, want size 81, eccentricity 40", comp)
	}
}

func TestPublicGreedyClusterPolicy(t *testing.T) {
	greedy := mssg.NewGreedyCluster(0)
	eng, err := mssg.New(mssg.Config{
		Backends: 3,
		Backend:  "hashmap",
		Ingest: mssg.IngestConfig{
			AddReverse: true,
			Policy:     func() mssg.IngestPolicy { return greedy },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	edges := []mssg.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	if _, err := eng.IngestEdges(edges); err != nil {
		t.Fatal(err)
	}
	if greedy.DirectorySize() == 0 {
		t.Fatal("greedy directory empty after ingestion")
	}
	res, err := eng.BFS(mssg.BFSConfig{Source: 0, Dest: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.PathLength != 3 {
		t.Fatalf("BFS over greedy-clustered graph = %+v", res)
	}
}

func TestPublicFilteredBFS(t *testing.T) {
	eng, err := mssg.New(mssg.Config{Backends: 2, Backend: "hashmap", Ingest: mssg.IngestConfig{AddReverse: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.IngestEdges([]mssg.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, db := range eng.Databases() {
		db.SetMetadata(0, 7)
		db.SetMetadata(1, 7)
		db.SetMetadata(2, 9)
	}
	res, err := eng.BFS(mssg.BFSConfig{
		Source: 0, Dest: 2,
		Filter: mssg.MetaFilter{Op: mssg.FilterEqual, Ref: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("filtered BFS crossed a type boundary: %+v", res)
	}
}
