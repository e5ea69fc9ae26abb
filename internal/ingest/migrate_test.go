package ingest

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/graphdb/hashdb"
)

// testEdges builds a deterministic pseudo-random edge set.
func migTestEdges(n, vertices int, seed uint64) []graph.Edge {
	s := seed
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		src := graph.VertexID(next() % uint64(vertices))
		dst := graph.VertexID(next() % uint64(vertices))
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	return edges
}

// seedReplicated stores every edge on all replicas of its source under
// rp, the way ingest's replicated store filter would have.
func seedReplicated(t *testing.T, dbs []graphdb.Graph, rp ReplicaPolicy, edges []graph.Edge) {
	t.Helper()
	for _, e := range edges {
		for _, n := range rp.Replicas(e.Src) {
			if err := dbs[n].StoreEdges([]graph.Edge{e}); err != nil {
				t.Fatalf("seed node %d: %v", n, err)
			}
		}
	}
}

// distinctAdj returns v's sorted distinct neighbours on db.
func distinctAdj(t *testing.T, db graphdb.Graph, v graph.VertexID) []graph.VertexID {
	t.Helper()
	adj := graph.NewAdjList(64)
	if err := graphdb.Adjacency(db, v, adj); err != nil {
		t.Fatalf("Adjacency(%d): %v", v, err)
	}
	seen := make(map[graph.VertexID]bool)
	var out []graph.VertexID
	for _, u := range adj.IDs() {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkPlacementServed asserts every vertex's full distinct adjacency is
// present on every replica the placement routes it to.
func checkPlacementServed(t *testing.T, dbs []graphdb.Graph, p Placement, reference map[graph.VertexID][]graph.VertexID) {
	t.Helper()
	rp, err := replicaPolicyFor(p)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range reference {
		for _, n := range rp.Replicas(v) {
			got := distinctAdj(t, dbs[n], v)
			if len(got) != len(want) {
				t.Fatalf("epoch %d: vertex %d on replica %d has %d distinct neighbours, want %d",
					p.Epoch, v, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("epoch %d: vertex %d on replica %d: adjacency diverges at %d (%d vs %d)",
						p.Epoch, v, n, i, got[i], want[i])
				}
			}
		}
	}
}

func referenceAdj(edges []graph.Edge) map[graph.VertexID][]graph.VertexID {
	seen := make(map[graph.VertexID]map[graph.VertexID]bool)
	for _, e := range edges {
		if seen[e.Src] == nil {
			seen[e.Src] = make(map[graph.VertexID]bool)
		}
		seen[e.Src][e.Dst] = true
	}
	ref := make(map[graph.VertexID][]graph.VertexID, len(seen))
	for v, us := range seen {
		for u := range us {
			ref[v] = append(ref[v], u)
		}
		sort.Slice(ref[v], func(i, j int) bool { return ref[v][i] < ref[v][j] })
	}
	return ref
}

func hashCluster(n int) []graphdb.Graph {
	dbs := make([]graphdb.Graph, n)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	return dbs
}

// TestMigrateJoin: a node joins, the minimal shard set moves, the epoch
// commits, and the new placement serves every vertex from every replica.
func TestMigrateJoin(t *testing.T) {
	base := Placement{Policy: "rendezvous", Backends: 3, Replication: 2, Seed: 42}
	holder, err := NewPlacementHolder("", Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(2000, 300, 7)
	dbs := hashCluster(4)
	seedReplicated(t, dbs, oldRP, edges)

	f := cluster.NewInProc(4, 0)
	defer f.Close()
	target, err := holder.JoinTarget(3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Migrate(f, dbs, holder, target, MigrationConfig{WindowEdges: 64})
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if holder.Epoch() != 1 || holder.Manifest().Pending != nil {
		t.Fatalf("join did not commit: %+v", holder.Manifest())
	}
	if stats.MovedVertices == 0 || stats.MovedEdges == 0 || stats.Windows == 0 {
		t.Fatalf("join moved nothing: %+v", stats)
	}
	checkPlacementServed(t, dbs, holder.Placement(), referenceAdj(edges))

	// Minimality: far fewer vertices moved than exist (the topology delta
	// touched 1 of 4 member slots).
	ref := referenceAdj(edges)
	if stats.MovedVertices >= int64(2*len(ref)) {
		t.Fatalf("join moved %d vertex copies for %d vertices — not minimal", stats.MovedVertices, len(ref))
	}
}

// countingHashDB counts StoreEdges calls on a hashdb that keeps its
// vertex scan.
type countingHashDB struct {
	*hashdb.DB
	calls int
}

func (d *countingHashDB) StoreEdges(edges []graph.Edge) error {
	d.calls++
	return d.DB.StoreEdges(edges)
}

// TestMigrateJoinStoresStageAtPassDone: a non-durable destination stages
// the windows it receives, stores a full stage with one StoreEdges call,
// and stores the remainder at the end of the pass, so every moved
// vertex's adjacency is complete when the epoch commits.
func TestMigrateJoinStoresStageAtPassDone(t *testing.T) {
	base := Placement{Policy: "rendezvous", Backends: 3, Replication: 2, Seed: 42}
	holder, err := NewPlacementHolder("", Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(2000, 300, 7)
	joiner := &countingHashDB{DB: hashdb.New()}
	dbs := append(hashCluster(3), joiner)
	seedReplicated(t, dbs, oldRP, edges)

	f := cluster.NewInProc(4, 0)
	defer f.Close()
	target, err := holder.JoinTarget(3)
	if err != nil {
		t.Fatal(err)
	}
	// One edge per window: every move lands on the joiner, in more
	// windows than one stage holds.
	stats, err := Migrate(f, dbs, holder, target, MigrationConfig{WindowEdges: 1})
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if stats.Windows != stats.MovedEdges || stats.MovedEdges <= defaultCheckpointWindows {
		t.Fatalf("want one window per moved edge and more than one stage: %+v", stats)
	}
	if want := int((stats.MovedEdges + defaultCheckpointWindows - 1) / defaultCheckpointWindows); joiner.calls != want {
		t.Errorf("joiner StoreEdges calls = %d, want %d (one per stage of %d windows)", joiner.calls, want, defaultCheckpointWindows)
	}
	checkPlacementServed(t, dbs, holder.Placement(), referenceAdj(edges))
}

// TestMigrateDrain: a planned drain re-homes the departing node's shards
// and the committed placement routes around it.
func TestMigrateDrain(t *testing.T) {
	base := Placement{Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 9}
	holder, err := NewPlacementHolder("", Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(1500, 200, 11)
	dbs := hashCluster(4)
	seedReplicated(t, dbs, oldRP, edges)

	f := cluster.NewInProc(4, 0)
	defer f.Close()
	target, err := holder.DrainTarget(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(f, dbs, holder, target, MigrationConfig{WindowEdges: 64}); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	got := holder.Placement()
	if got.Epoch != 1 || got.HasMember(2) {
		t.Fatalf("drain committed %+v", got)
	}
	checkPlacementServed(t, dbs, got, referenceAdj(edges))
	rp, _ := replicaPolicyFor(got)
	for v := range referenceAdj(edges) {
		for _, n := range rp.Replicas(v) {
			if n == 2 {
				t.Fatalf("vertex %d still routed to drained node 2", v)
			}
		}
	}
}

// TestMigrateCatchup: edges ingested between the copy and catch-up
// boundaries (the live-ingest window) reach the destinations too.
func TestMigrateCatchup(t *testing.T) {
	base := Placement{Policy: "rendezvous", Backends: 2, Replication: 1, Seed: 3}
	holder, err := NewPlacementHolder("", Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(800, 100, 5)
	dbs := hashCluster(3)
	seedReplicated(t, dbs, oldRP, edges)

	f := cluster.NewInProc(3, 0)
	defer f.Close()
	target, err := holder.JoinTarget(2)
	if err != nil {
		t.Fatal(err)
	}

	// Edges that arrive mid-copy: appended to the source replicas exactly
	// as live ingest under the old placement would do.
	late := []graph.Edge{}
	for v := graph.VertexID(0); v < 100; v++ {
		late = append(late, graph.Edge{Src: v, Dst: graph.VertexID(1000 + v)})
	}
	injected := false
	stats, err := Migrate(f, dbs, holder, target, MigrationConfig{
		WindowEdges: 32,
		Hook: func(pass cluster.MigratePass) error {
			if pass == cluster.PassCatchup && !injected {
				injected = true
				for _, e := range late {
					for _, n := range oldRP.Replicas(e.Src) {
						if err := dbs[n].StoreEdges([]graph.Edge{e}); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if !injected {
		t.Fatal("catch-up hook never ran")
	}
	if stats.CatchupEdges == 0 {
		t.Fatalf("no catch-up edges shipped: %+v", stats)
	}
	checkPlacementServed(t, dbs, holder.Placement(), referenceAdj(append(edges, late...)))
}

// TestMigrateVerifyFailure: a destination whose shard diverges from the
// source fails verify, the epoch does not flip, and the pending record
// remains for resume-or-abort.
func TestMigrateVerifyFailure(t *testing.T) {
	base := Placement{Policy: "rendezvous", Backends: 2, Replication: 1, Seed: 1}
	holder, err := NewPlacementHolder("", Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(600, 80, 13)
	dbs := hashCluster(3)
	seedReplicated(t, dbs, oldRP, edges)

	target, err := holder.JoinTarget(2)
	if err != nil {
		t.Fatal(err)
	}
	newRP, err := replicaPolicyFor(target)
	if err != nil {
		t.Fatal(err)
	}
	// A vertex that moves to the joining node; corrupting its destination
	// copy between catch-up and verify must be caught.
	var victim graph.VertexID = ^graph.VertexID(0)
	for v := range referenceAdj(edges) {
		for _, n := range newRP.Replicas(v) {
			if n == 2 {
				victim = v
			}
		}
	}
	if victim == ^graph.VertexID(0) {
		t.Fatal("no vertex moves to the joining node; adjust seeds")
	}

	f := cluster.NewInProc(3, 0)
	defer f.Close()
	_, err = Migrate(f, dbs, holder, target, MigrationConfig{
		WindowEdges: 32,
		Hook: func(pass cluster.MigratePass) error {
			if pass == cluster.PassVerify {
				// Divergence: an edge the source never shipped appears in
				// the destination's copy of the moved shard.
				return dbs[2].StoreEdges([]graph.Edge{{Src: victim, Dst: 999999}})
			}
			return nil
		},
	})
	if !errors.Is(err, cluster.ErrMigrationVerify) {
		t.Fatalf("err = %v, want ErrMigrationVerify", err)
	}
	if holder.Epoch() != 0 {
		t.Fatalf("failed verify flipped the epoch to %d", holder.Epoch())
	}
	if holder.Manifest().Pending == nil {
		t.Fatal("failed verify dropped the pending record")
	}
	if err := holder.AbortMigration(); err != nil {
		t.Fatal(err)
	}
	if holder.Manifest().Pending != nil || holder.Epoch() != 0 {
		t.Fatalf("abort left %+v", holder.Manifest())
	}
}

// TestDurableMigrationResumes: a migration aborted mid-flight over
// durable back-ends resumes from the checkpointed dedup-set — re-shipped
// windows are recognized as duplicates and the data is not double-stored.
func TestDurableMigrationResumes(t *testing.T) {
	openNode := func(dir string) graphdb.Graph {
		db, err := grdb.Open(graphdb.Options{
			Dir:        dir,
			Levels:     []graphdb.LevelSpec{{SubBlockCap: 4, BlockBytes: 512}, {SubBlockCap: 8, BlockBytes: 512}, {SubBlockCap: 16, BlockBytes: 512}},
			Durability: graphdb.DurabilityFull,
		})
		if err != nil {
			t.Fatalf("grdb.Open(%s): %v", dir, err)
		}
		return db
	}
	dirs := make([]string, 3)
	dbs := make([]graphdb.Graph, 3)
	for i := range dbs {
		dirs[i] = t.TempDir()
		dbs[i] = openNode(dirs[i])
	}
	closeAll := func() {
		for _, db := range dbs {
			db.Close()
		}
	}
	defer func() { closeAll() }()

	manifestDir := t.TempDir()
	base := Placement{Policy: "rendezvous", Backends: 2, Replication: 1, Seed: 21}
	holder, err := NewPlacementHolder(manifestDir, Manifest{Committed: base})
	if err != nil {
		t.Fatal(err)
	}
	oldRP, _ := replicaPolicyFor(base)
	edges := migTestEdges(500, 60, 17)
	seedReplicated(t, dbs, oldRP, edges)

	target, err := holder.JoinTarget(2)
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1: the coordinator dies at the verify boundary — after copy
	// and catch-up data (and the destination's dedup checkpoint) are
	// durable, before any verdict.
	f := cluster.NewInProc(3, 0)
	_, err = Migrate(f, dbs, holder, target, MigrationConfig{
		WindowEdges: 16,
		Durable:     true,
		Hook: func(pass cluster.MigratePass) error {
			if pass == cluster.PassVerify {
				return fmt.Errorf("chaos: coordinator killed at the verify boundary")
			}
			return nil
		},
	})
	if !errors.Is(err, cluster.ErrMigrationAborted) {
		t.Fatalf("attempt 1 err = %v, want ErrMigrationAborted", err)
	}
	f.Close()

	// Crash-restart every node and the coordinator process: reopen the
	// databases and reload the manifest from disk.
	closeAll()
	for i := range dbs {
		dbs[i] = openNode(dirs[i])
	}
	holder2, ok, err := OpenPlacementHolder(manifestDir)
	if err != nil || !ok {
		t.Fatalf("reopen holder: ok=%v err=%v", ok, err)
	}
	if holder2.Epoch() != 0 || holder2.Manifest().Pending == nil {
		t.Fatalf("restart lost the pending migration: %+v", holder2.Manifest())
	}

	f2 := cluster.NewInProc(3, 0)
	defer f2.Close()
	stats, resumed, err := ResumeMigration(f2, dbs, holder2, MigrationConfig{WindowEdges: 16, Durable: true})
	if err != nil {
		t.Fatalf("ResumeMigration: %v", err)
	}
	if !resumed {
		t.Fatal("ResumeMigration found nothing pending")
	}
	if stats.DupWindows == 0 {
		t.Fatalf("resume re-applied every window (DupWindows = 0): %+v", stats)
	}
	if holder2.Epoch() != 1 {
		t.Fatalf("resume did not commit: epoch %d", holder2.Epoch())
	}
	checkPlacementServed(t, dbs, holder2.Placement(), referenceAdj(edges))

	// And nothing pends any more: a second resume is a no-op.
	if _, resumed, err := ResumeMigration(f2, dbs, holder2, MigrationConfig{Durable: true}); err != nil || resumed {
		t.Fatalf("post-commit resume: resumed=%v err=%v", resumed, err)
	}
}
