package query

import (
	"context"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/graph"
)

func TestComponentChain(t *testing.T) {
	// A 10-edge chain: component size 11, eccentricity from vertex 0 is 10.
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(10), 3)
	res, err := ParallelComponent(context.Background(), direct{f, dbs}, 0, KnownMapping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 11 {
		t.Fatalf("Size = %d, want 11", res.Size)
	}
	if res.Eccentricity != 10 {
		t.Fatalf("Eccentricity = %d, want 10", res.Eccentricity)
	}
	// From the middle, eccentricity halves.
	res, err = ParallelComponent(context.Background(), direct{f, dbs}, 5, KnownMapping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 11 || res.Eccentricity != 5 {
		t.Fatalf("from middle: size %d ecc %d, want 11/5", res.Size, res.Eccentricity)
	}
}

func TestComponentDisconnected(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 50, Dst: 51}}
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, edges, 2)
	a, err := ParallelComponent(context.Background(), direct{f, dbs}, 0, KnownMapping)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 3 {
		t.Fatalf("component of 0 has size %d, want 3", a.Size)
	}
	b, err := ParallelComponent(context.Background(), direct{f, dbs}, 50, KnownMapping)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size != 2 || b.Eccentricity != 1 {
		t.Fatalf("component of 50: size %d ecc %d, want 2/1", b.Size, b.Eccentricity)
	}
}

func TestComponentIsolatedVertex(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(3), 2)
	res, err := ParallelComponent(context.Background(), direct{f, dbs}, 77, KnownMapping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != 1 || res.Eccentricity != 0 {
		t.Fatalf("isolated vertex: size %d ecc %d, want 1/0", res.Size, res.Eccentricity)
	}
}

func TestComponentAnalysisRegistry(t *testing.T) {
	a, ok := LookupAnalysis("component")
	if !ok {
		t.Fatal("component not registered")
	}
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(4), 2)
	out, err := a.Run(context.Background(), direct{f, dbs}, map[string]string{"source": "2"})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(ComponentResult)
	if res.Size != 5 {
		t.Fatalf("component size = %d, want 5", res.Size)
	}
	if _, err := a.Run(context.Background(), direct{f, dbs}, nil); err == nil {
		t.Fatal("missing source accepted")
	}
}
