// Elastic-topology conformance: BFS keeps returning the exact serial
// reference while shards migrate for a node join and a planned drain,
// the epoch history stays monotonic, and a migration killed at any
// phase boundary — source, destination, or coordinator — either resumes
// after restart or aborts cleanly with the prior epoch authoritative.
// `make migrate` runs this file under -race.
package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// chainLen is the BFS workload: the directed chain 0→1→…→chainLen,
// whose serial reference is Found with PathLength == chainLen.
const chainLen = 120

func chainEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)}
	}
	return edges
}

// elasticPlacement is the suite's starting topology: members {0,1,2} of
// a 4-slot fabric, 2-way replication, node 3 spare.
func elasticPlacement() ingest.Placement {
	return ingest.Placement{
		Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 5,
		Nodes: []cluster.NodeID{0, 1, 2},
	}
}

// elasticEngine builds a kill-capable elastic engine: reliable layer
// over a fault layer (so cluster.Kill can crash nodes on demand and
// dead peers become prompt NodeDownError), hashmap back-ends (internal
// locking tolerates migration writes racing BFS reads).
func elasticEngine(t *testing.T, holder *ingest.PlacementHolder, seed int64, plan cluster.Plan) *core.Engine {
	t.Helper()
	plan.Seed = seed
	e, err := core.New(core.Config{
		Backends:        4,
		FrontEnds:       1,
		Backend:         "hashmap",
		Ingest:          ingest.Config{WindowEdges: 32},
		Fault:           &plan,
		Reliable:        true,
		ReliableOptions: fastReliable(),
		Failover:        fastFailover(),
		Placement:       holder,
		IngestDeadline:  60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bfsChecker runs BFS in a loop until stopped, requiring every result
// to equal the serial reference. Call stop() to end it; it reports any
// divergence and returns the number of successful queries. The goroutine
// never touches t directly — errors are carried back to stop() so a
// subtest that bails early cannot race a completed test.
func bfsChecker(t *testing.T, e *core.Engine) (stop func() int) {
	t.Helper()
	quit := make(chan struct{})
	type outcome struct {
		n   int
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		n := 0
		for {
			select {
			case <-quit:
				done <- outcome{n: n}
				return
			default:
			}
			res, err := e.BFS(query.BFSConfig{Source: 0, Dest: chainLen, MaxLevels: chainLen + 10})
			if err != nil {
				done <- outcome{n, fmt.Errorf("concurrent BFS: %w", err)}
				return
			}
			if !res.Found || res.PathLength != chainLen {
				done <- outcome{n, fmt.Errorf("concurrent BFS = (%v,%d), want (true,%d)", res.Found, res.PathLength, chainLen)}
				return
			}
			n++
		}
	}()
	return func() int {
		close(quit)
		select {
		case o := <-done:
			if o.err != nil {
				t.Error(o.err)
			}
			return o.n
		case <-time.After(90 * time.Second):
			t.Fatal("BFS checker wedged")
			return 0
		}
	}
}

// TestChaosMigrateLiveBFS: under masked random faults, BFS runs
// continuously while node 3 joins and node 0 drains; every answer is
// serial-reference-equal and the epoch history is consecutive.
func TestChaosMigrateLiveBFS(t *testing.T) {
	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			holder, err := ingest.NewPlacementHolder("", ingest.Manifest{Committed: elasticPlacement()})
			if err != nil {
				t.Fatal(err)
			}
			e := elasticEngine(t, holder, seed, cluster.Plan{
				DropProb: 0.005, DupProb: 0.002, DelayProb: 0.005,
				MaxDelay: 200 * time.Microsecond,
			})
			defer e.Close()
			if _, err := e.IngestEdges(chainEdges(chainLen)); err != nil {
				t.Fatalf("ingest: %v", err)
			}

			stop := bfsChecker(t, e)
			joinStats, err := e.Join(3, ingest.MigrationConfig{WindowEdges: 8})
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if _, err := e.Drain(0, ingest.MigrationConfig{WindowEdges: 8}); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			queries := stop()
			if t.Failed() {
				return
			}
			if queries == 0 {
				t.Error("no BFS completed during the migrations")
			}
			if joinStats.MovedVertices == 0 {
				t.Errorf("join moved nothing: %+v", joinStats)
			}
			hist := holder.History()
			if len(hist) != 3 {
				t.Fatalf("epoch history %v, want 3 epochs", hist)
			}
			for i := 1; i < len(hist); i++ {
				if hist[i] != hist[i-1]+1 {
					t.Fatalf("epoch history %v not consecutive", hist)
				}
			}
			p := holder.Placement()
			if p.Epoch != 2 || p.HasMember(0) || !p.HasMember(3) {
				t.Fatalf("final placement %+v", p)
			}
			e.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestChaosMigrateKillSweep kills the coordinator (node 0), a source
// (node 1), and the destination (node 3) at every phase boundary of a
// join migration while BFS runs. Every kill must leave the old epoch
// authoritative with the pending record intact, abort must be clean,
// and BFS must keep returning the serial reference around the corpse.
func TestChaosMigrateKillSweep(t *testing.T) {
	boundaries := []cluster.MigratePass{cluster.PassCopy, cluster.PassCatchup, cluster.PassVerify, cluster.PassCommit}
	victims := []struct {
		role string
		node cluster.NodeID
	}{{"coordinator", 0}, {"source", 1}, {"destination", 3}}

	for _, b := range boundaries {
		for _, v := range victims {
			t.Run(fmt.Sprintf("%s/%s", b, v.role), func(t *testing.T) {
				before := runtime.NumGoroutine()
				holder, err := ingest.NewPlacementHolder("", ingest.Manifest{Committed: elasticPlacement()})
				if err != nil {
					t.Fatal(err)
				}
				e := elasticEngine(t, holder, 1, cluster.Plan{})
				defer e.Close()
				if _, err := e.IngestEdges(chainEdges(chainLen)); err != nil {
					t.Fatalf("ingest: %v", err)
				}

				stop := bfsChecker(t, e)
				boundary, victim := b, v.node
				var once sync.Once
				_, err = e.Join(3, ingest.MigrationConfig{
					WindowEdges: 8,
					Hook: func(pass cluster.MigratePass) error {
						if pass == boundary {
							once.Do(func() {
								if !cluster.Kill(e.Fabric(), victim) {
									t.Errorf("cluster.Kill found no fault layer")
								}
							})
						}
						return nil
					},
				})
				stop()
				if t.Failed() {
					return
				}
				if err == nil {
					t.Fatalf("migration survived killing the %s at the %s boundary", v.role, b)
				}
				if errors.Is(err, cluster.ErrMigrationVerify) {
					t.Fatalf("kill surfaced as a verify failure: %v", err)
				}
				if holder.Epoch() != 0 {
					t.Fatalf("killed migration committed epoch %d", holder.Epoch())
				}
				if holder.Manifest().Pending == nil {
					t.Fatal("killed migration lost its pending record")
				}
				if err := e.AbortMigration(); err != nil {
					t.Fatalf("abort after kill: %v", err)
				}
				if holder.Epoch() != 0 || holder.Manifest().Pending != nil {
					t.Fatalf("abort left %+v", holder.Manifest())
				}
				if hist := holder.History(); len(hist) != 1 || hist[0] != 0 {
					t.Fatalf("epoch history %v after aborted migration", hist)
				}

				// The dead node is routed around: a member corpse is served
				// by its replicas, a destination corpse is outside the
				// epoch-0 roster entirely.
				res, err := e.BFS(query.BFSConfig{Source: 0, Dest: chainLen, MaxLevels: chainLen + 10})
				if err != nil {
					t.Fatalf("BFS after kill+abort: %v", err)
				}
				if !res.Found || res.PathLength != chainLen {
					t.Fatalf("BFS after kill+abort = (%v,%d), want (true,%d)", res.Found, res.PathLength, chainLen)
				}
				e.Close()
				checkGoroutines(t, before)
			})
		}
	}
}

// TestChaosMigrateKillThenResume: the destination dies at the catch-up
// boundary; after a full restart (fresh fabric, manifest reloaded from
// disk) ResumeMigration finishes the interrupted migration and commits,
// and BFS over the new topology matches the serial reference.
func TestChaosMigrateKillThenResume(t *testing.T) {
	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			dir := t.TempDir()
			holder, err := ingest.NewPlacementHolder(dir, ingest.Manifest{Committed: elasticPlacement()})
			if err != nil {
				t.Fatal(err)
			}
			rp, ok := holder.Policy().(ingest.ReplicaPolicy)
			if !ok {
				t.Fatal("rendezvous policy lost its replica directory")
			}
			dbs := make([]graphdb.Graph, 4)
			for i := range dbs {
				dbs[i] = hashdb.New()
			}
			for _, e := range chainEdges(chainLen) {
				for _, n := range rp.Replicas(e.Src) {
					if err := dbs[n].StoreEdges([]graph.Edge{e}); err != nil {
						t.Fatal(err)
					}
				}
			}
			target, err := holder.JoinTarget(3)
			if err != nil {
				t.Fatal(err)
			}

			f1 := cluster.NewReliable(cluster.NewFaulty(cluster.NewInProc(4, 0), cluster.Plan{Seed: seed}), fastReliable())
			_, err = ingest.Migrate(f1, dbs, holder, target, ingest.MigrationConfig{
				WindowEdges: 8,
				Hook: func(pass cluster.MigratePass) error {
					if pass == cluster.PassCatchup {
						cluster.Kill(f1, 3)
					}
					return nil
				},
			})
			if err == nil {
				t.Fatal("migration survived its destination dying mid-flight")
			}
			f1.Close()
			if holder.Epoch() != 0 {
				t.Fatalf("dead destination committed epoch %d", holder.Epoch())
			}

			// Restart: fresh fabric (every node back up), manifest reloaded
			// from disk — the durable pending intent drives the resume.
			holder2, ok, err := ingest.OpenPlacementHolder(dir)
			if err != nil || !ok {
				t.Fatalf("reopen holder: ok=%v err=%v", ok, err)
			}
			if holder2.Manifest().Pending == nil {
				t.Fatal("restart lost the pending migration")
			}
			f2 := cluster.NewReliable(cluster.NewFaulty(cluster.NewInProc(4, 0), cluster.Plan{Seed: seed + 1}), fastReliable())
			defer f2.Close()
			stats, resumed, err := ingest.ResumeMigration(f2, dbs, holder2, ingest.MigrationConfig{WindowEdges: 8})
			if err != nil {
				t.Fatalf("ResumeMigration: %v", err)
			}
			if !resumed || holder2.Epoch() != 1 {
				t.Fatalf("resume: resumed=%v epoch=%d, want true/1", resumed, holder2.Epoch())
			}
			if stats.Windows == 0 {
				t.Fatalf("resume shipped nothing: %+v", stats)
			}

			newRP, ok := holder2.Policy().(ingest.ReplicaPolicy)
			if !ok {
				t.Fatal("committed policy lost its replica directory")
			}
			res, err := query.FailoverBFS(t.Context(), f2, dbs, query.BFSConfig{
				Source: 0, Dest: chainLen, MaxLevels: chainLen + 10,
				Routing: query.Routing{
					OwnerOf:     holder2.Policy().(ingest.DirectoryPolicy).OwnerOf,
					ReplicasOf:  newRP.Replicas,
					ActiveNodes: holder2.Placement().Members(),
				},
			}, fastFailover())
			if err != nil {
				t.Fatalf("BFS after resume: %v", err)
			}
			if !res.Found || res.PathLength != chainLen {
				t.Fatalf("BFS after resume = (%v,%d), want (true,%d)", res.Found, res.PathLength, chainLen)
			}
		})
	}
}
