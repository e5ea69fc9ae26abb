package core_test

import (
	"testing"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/graph"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// TestEngineElasticTopology is the engine-level join/drain integration
// test: ingest under a 3-member placement (one spare fabric slot), join
// the spare, drain an original member, and check BFS answers against
// the sequential oracle at every epoch.
func TestEngineElasticTopology(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "t", Vertices: 500, M: 3, HubFraction: 0.1, Seed: 23})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	dist := refBFS(edges, 3)
	queries := [][2]graph.VertexID{{3, 4}, {3, 57}, {3, 499}, {3, 3}}

	holder, err := ingest.NewPlacementHolder("", ingest.Manifest{Committed: ingest.Placement{
		Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 5,
		Nodes: []cluster.NodeID{0, 1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Config{
		Backends:  4,
		FrontEnds: 2,
		Backend:   "hashmap",
		Ingest:    ingest.Config{AddReverse: true},
		Placement: holder,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	defer e.Close()
	if e.PlacementHolder() != holder {
		t.Fatal("engine does not expose its placement holder")
	}
	if _, err := e.IngestEdges(edges); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	checkQueries := func(stage string) {
		t.Helper()
		for _, q := range queries {
			res, err := e.BFS(query.BFSConfig{Source: q[0], Dest: q[1]})
			if err != nil {
				t.Fatalf("%s: BFS %v: %v", stage, q, err)
			}
			want, reachable := dist[q[1]]
			if q[0] == q[1] {
				want, reachable = 0, true
			}
			if res.Found != reachable || (reachable && res.PathLength != want) {
				t.Fatalf("%s: BFS %v = (%v,%d), want (%v,%d)", stage, q, res.Found, res.PathLength, reachable, want)
			}
		}
	}
	checkQueries("epoch 0")

	// The ingest-time policy must have routed nothing to the spare slot.
	if got := e.DB(3).Stats().EdgesStored; got != 0 {
		t.Fatalf("spare node 3 holds %d edges before joining", got)
	}

	stats, err := e.Join(3, ingest.MigrationConfig{})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if stats.MovedVertices == 0 {
		t.Fatalf("join moved nothing: %+v", stats)
	}
	if holder.Epoch() != 1 {
		t.Fatalf("join committed epoch %d, want 1", holder.Epoch())
	}
	if got := e.DB(3).Stats().EdgesStored; got == 0 {
		t.Fatal("joined node received no data")
	}
	checkQueries("epoch 1 (after join)")

	if _, err := e.Drain(0, ingest.MigrationConfig{}); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	p := holder.Placement()
	if p.Epoch != 2 || p.HasMember(0) {
		t.Fatalf("drain committed %+v", p)
	}
	checkQueries("epoch 2 (after drain)")

	// No epoch skipped or repeated.
	hist := holder.History()
	for i := 1; i < len(hist); i++ {
		if hist[i] != hist[i-1]+1 {
			t.Fatalf("epoch history %v is not consecutive", hist)
		}
	}

	// Elastic operations without a holder fail loudly.
	static := newEngine(t, "hashmap", 2, 1)
	if _, err := static.Join(1, ingest.MigrationConfig{}); err == nil {
		t.Fatal("Join on a static engine succeeded")
	}
	if err := static.AbortMigration(); err == nil {
		t.Fatal("AbortMigration on a static engine succeeded")
	}
	if _, resumed, err := e.ResumeMigration(ingest.MigrationConfig{}); err != nil || resumed {
		t.Fatalf("quiescent resume: resumed=%v err=%v", resumed, err)
	}
}

// A migration over a backend that cannot enumerate its vertices (bdb has
// no graphdb.VertexScanner) is refused before BeginMigration persists a
// pending record, instead of hanging in the copy pass.
func TestEngineMigrationNeedsVertexScanner(t *testing.T) {
	holder, err := ingest.NewPlacementHolder(t.TempDir(), ingest.Manifest{Committed: ingest.Placement{
		Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 5,
		Nodes: []cluster.NodeID{0, 1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Config{
		Backends: 4, Backend: "bdb", Dir: t.TempDir(),
		Ingest:    ingest.Config{AddReverse: true},
		Placement: holder,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.IngestEdges(testGraph(t)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for name, op := range map[string]func() error{
		"drain": func() error { _, err := e.Drain(0, ingest.MigrationConfig{}); return err },
		"join":  func() error { _, err := e.Join(3, ingest.MigrationConfig{}); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s on bdb succeeded", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s on bdb hung", name)
		}
		if p := holder.Manifest().Pending; p != nil {
			t.Fatalf("%s on bdb left a pending migration to epoch %d", name, p.Epoch)
		}
	}
}
