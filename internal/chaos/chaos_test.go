// Package chaos is the fault-tolerance conformance suite: it replays
// seeded fault plans (drops, duplicates, corruption, delays, ambiguous
// send failures, scripted crashes) over both fabrics and asserts the
// stack's end-to-end guarantees — exact ingest counts under masked
// faults, fail-fast ErrNodeDown on crashes, ErrPartialCoverage from BFS,
// and no goroutine leaks. Seeds come from MSSG_CHAOS_SEEDS (default
// "1,7,42"); `make chaos` runs the suite under -race.
package chaos

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
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

// seeds returns the fault-plan seeds to replay.
func seeds(t *testing.T) []int64 {
	t.Helper()
	spec := os.Getenv("MSSG_CHAOS_SEEDS")
	if spec == "" {
		spec = "1,7,42"
	}
	var out []int64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("MSSG_CHAOS_SEEDS: %v", err)
		}
		out = append(out, v)
	}
	return out
}

var fabricKinds = map[string]core.FabricKind{
	"inproc": core.InProc,
	"tcp":    core.TCP,
}

// fastReliable keeps failure detection within test budgets.
func fastReliable() cluster.ReliableOptions {
	return cluster.ReliableOptions{
		RetransmitInitial: 5 * time.Millisecond,
		RetransmitMax:     50 * time.Millisecond,
		SendTimeout:       5 * time.Second,
		HeartbeatEvery:    20 * time.Millisecond,
		HeartbeatBudget:   300 * time.Millisecond,
	}
}

// testEdges builds a deterministic edge list (no self loops).
func testEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(i % 97),
			Dst: graph.VertexID(100 + (i*31+7)%89),
		}
	}
	return edges
}

// checkGoroutines asserts the goroutine count settles back near the
// baseline after a fabric shuts down.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestChaosIngestExactCounts is the headline guarantee: with the
// reliable layer over a fabric that drops, duplicates, corrupts, and
// delays 1-2%% of frames, ingestion completes with exact counts.
func TestChaosIngestExactCounts(t *testing.T) {
	edges := testEdges(2500)
	for fname, kind := range fabricKinds {
		for _, seed := range seeds(t) {
			t.Run(fname+"/seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				before := runtime.NumGoroutine()
				eng, err := core.New(core.Config{
					Backends:  4,
					FrontEnds: 2,
					Backend:   "hashmap",
					Fabric:    kind,
					Ingest:    ingest.Config{WindowEdges: 64},
					Fault: &cluster.Plan{
						Seed:     seed,
						DropProb: 0.01, DupProb: 0.005, CorruptProb: 0.005, DelayProb: 0.01,
						MaxDelay: 500 * time.Microsecond,
					},
					Reliable:        true,
					ReliableOptions: fastReliable(),
					IngestDeadline:  60 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				stats, err := eng.IngestEdges(edges)
				if err != nil {
					t.Fatalf("ingest under masked faults: %v", err)
				}
				want := int64(len(edges))
				if got := stats.EdgesStored.Load(); got != want {
					t.Errorf("EdgesStored = %d, want exactly %d", got, want)
				}
				if got := stats.EdgesIn.Load(); got != want {
					t.Errorf("EdgesIn = %d, want %d", got, want)
				}
				eng.Close()
				checkGoroutines(t, before)
			})
		}
	}
}

// TestChaosIngestCrashFailsFast pins degradation under a real loss: a
// back-end crashes mid-ingest, and the run fails fast with ErrNodeDown
// instead of hanging or silently storing a partial graph as success.
func TestChaosIngestCrashFailsFast(t *testing.T) {
	edges := testEdges(4000)
	for fname, kind := range fabricKinds {
		for _, seed := range seeds(t) {
			t.Run(fname+"/seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				before := runtime.NumGoroutine()
				eng, err := core.New(core.Config{
					Backends:  4,
					FrontEnds: 2,
					Backend:   "hashmap",
					Fabric:    kind,
					Ingest:    ingest.Config{WindowEdges: 32},
					Fault: &cluster.Plan{
						Seed:     seed,
						DropProb: 0.01,
						// Node 2 dies once it has attempted 10 outgoing
						// messages (acks + heartbeats) — mid-ingest, well
						// before it has acked its ~60 windows.
						Crashes: []cluster.Crash{{Node: 2, AfterSends: 10}},
					},
					Reliable:        true,
					ReliableOptions: fastReliable(),
					IngestDeadline:  60 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				_, err = eng.IngestEdges(edges)
				if !errors.Is(err, cluster.ErrNodeDown) {
					t.Errorf("ingest with a crashed back-end = %v, want ErrNodeDown", err)
				}
				if el := time.Since(start); el > 30*time.Second {
					t.Errorf("failure detection took %v — not fail-fast", el)
				}
				eng.Close()
				checkGoroutines(t, before)
			})
		}
	}
}

// TestChaosUnreliableMiscountsOrHangs is the negative control: the SAME
// fault plan as TestChaosIngestExactCounts, minus the reliable layer,
// must lose data or wedge (rescued only by the graph deadline). This is
// what justifies the reliable layer's existence.
func TestChaosUnreliableMiscountsOrHangs(t *testing.T) {
	edges := testEdges(2500)
	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			eng, err := core.New(core.Config{
				Backends:  4,
				FrontEnds: 2,
				Backend:   "hashmap",
				Fabric:    core.InProc,
				Ingest:    ingest.Config{WindowEdges: 32},
				Fault: &cluster.Plan{
					// Stronger than the masked-fault plan: the point is to
					// show the raw fabric cannot survive, on every seed.
					Seed:     seed,
					DropProb: 0.05, DupProb: 0.005, CorruptProb: 0.02, DelayProb: 0.01,
					MaxDelay: 500 * time.Microsecond,
				},
				Reliable:       false,
				IngestDeadline: 3 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			stats, err := eng.IngestEdges(edges)
			stored := int64(0)
			if stats != nil {
				stored = stats.EdgesStored.Load()
			}
			if err == nil && stored == int64(len(edges)) {
				t.Fatalf("raw faulty fabric ingested %d/%d edges with no error — fault injection is inert",
					stored, len(edges))
			}
			t.Logf("unreliable run: stored %d/%d, err=%v", stored, len(edges), err)
		})
	}
}

// TestChaosRetryIdempotency drives the ingest retry protocol end to end:
// every send succeeds but a fraction report ambiguous failures, so
// front-ends re-ship windows that actually arrived. Dedup on the store
// side must keep the counts exact.
func TestChaosRetryIdempotency(t *testing.T) {
	edges := testEdges(2000)
	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng, err := core.New(core.Config{
				Backends:  4,
				FrontEnds: 2,
				Backend:   "hashmap",
				Fabric:    core.InProc,
				Ingest:    ingest.Config{WindowEdges: 32, ShipRetries: 8},
				Fault: &cluster.Plan{
					Seed:        seed,
					SendErrProb: 0.15,
				},
				IngestDeadline: 60 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := eng.IngestEdges(edges)
			if err != nil {
				t.Fatalf("ingest with ambiguous send failures: %v", err)
			}
			want := int64(len(edges))
			if got := stats.EdgesStored.Load(); got != want {
				t.Errorf("EdgesStored = %d, want exactly %d (dedup failed)", got, want)
			}
			if stats.Retries.Load() == 0 {
				t.Errorf("no window re-ships happened — the fault plan exercised nothing")
			}
			if stats.DupBlocks.Load() == 0 {
				t.Errorf("no duplicate windows discarded — retries were not ambiguous")
			}
			// Adjacency must hold exactly one record per input edge.
			var deg int64
			for i := 0; i < eng.Backends(); i++ {
				for v := graph.VertexID(0); v < 97; v++ {
					d, err := graphdb.Degree(eng.DB(i), v)
					if err != nil {
						t.Fatal(err)
					}
					deg += d
				}
			}
			if deg != want {
				t.Errorf("total stored degree = %d, want %d", deg, want)
			}
			eng.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestChaosBFSPartialCoverage pins the query-side contract: when a
// back-end crashes mid-search, BFS returns ErrPartialCoverage instead of
// deadlocking on the dead node's barrier.
func TestChaosBFSPartialCoverage(t *testing.T) {
	const p = 4
	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			inner := cluster.NewInProc(p, 0)
			f := cluster.NewReliable(cluster.NewFaulty(inner, cluster.Plan{
				Seed: seed,
				// Node 1 dies once its protocol traffic (acks, heartbeats,
				// fringe sends) passes 60 messages — several BFS levels in.
				Crashes: []cluster.Crash{{Node: 1, AfterSends: 60}},
			}), fastReliable())

			// A directed line graph 0→1→…→399 declustered by vertex mod p:
			// every level crosses nodes, so the search cannot avoid the
			// crashed one.
			dbs := make([]graphdb.Graph, p)
			for i := range dbs {
				dbs[i] = hashdb.New()
			}
			for v := 0; v < 399; v++ {
				owner := v % p
				err := dbs[owner].StoreEdges([]graph.Edge{
					{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)},
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			done := make(chan error, 1)
			go func() {
				_, err := query.ParallelBFS(context.Background(), f, dbs, query.BFSConfig{
					Source: 0, Dest: 399, MaxLevels: 500,
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, query.ErrPartialCoverage) {
					t.Errorf("BFS over a crashed back-end = %v, want ErrPartialCoverage", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("BFS deadlocked on the crashed back-end")
			}
			f.Close()
			checkGoroutines(t, before)
		})
	}
}
