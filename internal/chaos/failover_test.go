// Query-time failover conformance: kill a back-end mid-BFS on a
// replicated deployment and the answer must still be exactly the
// single-node serial reference — replicas serve the dead primary's
// shard, the failed attempt is retried on the survivors, and only the
// loss of every replica of a shard degrades the result.
package chaos

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// chainDBs stores the directed chain 0→1→…→n on p back-ends, each
// vertex's adjacency on all of its rendezvous replicas — the layout a
// ReplicationFactor=k ingest produces.
func chainDBs(t *testing.T, n, p int, rv *ingest.Rendezvous) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	for v := 0; v < n; v++ {
		e := graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)}
		for _, node := range rv.Replicas(e.Src) {
			if err := dbs[node].StoreEdges([]graph.Edge{e}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dbs
}

// serialChainDB is the single-node reference: the whole chain in one db.
func serialChainDB(t *testing.T, n int) []graphdb.Graph {
	t.Helper()
	db := hashdb.New()
	for v := 0; v < n; v++ {
		err := db.StoreEdges([]graph.Edge{{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return []graphdb.Graph{db}
}

// failoverFabric layers reliable delivery over a faulty transport whose
// plan crashes the given nodes after their send counters pass the
// thresholds — several BFS levels into the first attempt.
func failoverFabric(p int, seed int64, crashes ...cluster.Crash) cluster.Fabric {
	return cluster.NewReliable(cluster.NewFaulty(cluster.NewInProc(p, 0), cluster.Plan{
		Seed:     seed,
		DropProb: 0.005,
		Crashes:  crashes,
	}), fastReliable())
}

// fastFailover keeps retry backoff within test budgets.
func fastFailover() query.FailoverOptions {
	return query.FailoverOptions{
		MaxRetries:     5,
		BackoffInitial: 20 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
	}
}

// TestChaosFailoverQueryKillBFS is the tentpole guarantee: node 1 is
// killed mid-search on a 2-way replicated deployment, and BFS still
// returns the exact serial answer — the failed attempt is retried on
// the survivors and node 1's shard is read from its replicas.
func TestChaosFailoverQueryKillBFS(t *testing.T) {
	const p, n = 4, 200
	rv := ingest.NewRendezvous(p, 2, 0)

	ref, err := query.ParallelBFS(context.Background(), cluster.NewInProc(1, 0), serialChainDB(t, n),
		query.BFSConfig{Source: 0, Dest: n, MaxLevels: n + 10})
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			// Node 1 dies once its protocol traffic passes 60 messages —
			// several levels into the first attempt, long before level 200.
			f := failoverFabric(p, seed, cluster.Crash{Node: 1, AfterSends: 60})

			type out struct {
				res query.BFSResult
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := query.FailoverBFS(context.Background(), f, chainDBs(t, n, p, rv),
					query.BFSConfig{
						Source: 0, Dest: n, MaxLevels: n + 10,
						Routing: query.Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas},
					}, fastFailover())
				done <- out{res, err}
			}()
			var o out
			select {
			case o = <-done:
			case <-time.After(90 * time.Second):
				t.Fatal("failover BFS wedged on the crashed back-end")
			}
			if o.err != nil {
				t.Fatalf("failover BFS: %v", o.err)
			}
			if o.res.Found != ref.Found || o.res.PathLength != ref.PathLength {
				t.Errorf("failover answer (%v,%d) != serial reference (%v,%d)",
					o.res.Found, o.res.PathLength, ref.Found, ref.PathLength)
			}
			fo := o.res.Failover
			if fo == nil || fo.Retries == 0 {
				t.Errorf("failover stats %+v — the mid-query kill never forced a retry", fo)
			}
			if fo != nil && fo.ReplicaReads == 0 {
				t.Errorf("no replica reads — the dead node's shard was never served by a replica")
			}
			t.Logf("failover: %d retries, %d replica reads, suspected %v",
				fo.Retries, fo.ReplicaReads, fo.Suspected)
			f.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestChaosFailoverQueryKillKHop: the same guarantee for the k-hop
// neighborhood count — per-level counts identical to the serial
// reference after a mid-query kill.
func TestChaosFailoverQueryKillKHop(t *testing.T) {
	const p, n, k = 4, 120, 80
	rv := ingest.NewRendezvous(p, 2, 0)

	ref, err := query.ParallelKHop(context.Background(), cluster.NewInProc(1, 0), serialChainDB(t, n),
		query.KHopConfig{Source: 0, K: k})
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			f := failoverFabric(p, seed, cluster.Crash{Node: 1, AfterSends: 60})

			type out struct {
				res   query.KHopResult
				stats query.FailoverStats
				err   error
			}
			done := make(chan out, 1)
			go func() {
				res, err := query.FailoverKHop(context.Background(), f, chainDBs(t, n, p, rv),
					query.KHopConfig{
						Source: 0, K: k,
						Routing: query.Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas},
					}, fastFailover())
				done <- out{res, *res.Failover, err}
			}()
			var o out
			select {
			case o = <-done:
			case <-time.After(90 * time.Second):
				t.Fatal("failover k-hop wedged on the crashed back-end")
			}
			if o.err != nil {
				t.Fatalf("failover k-hop: %v", o.err)
			}
			if o.res.Total != ref.Total || len(o.res.PerLevel) != len(ref.PerLevel) {
				t.Errorf("failover count %d (%d levels) != serial reference %d (%d levels)",
					o.res.Total, len(o.res.PerLevel), ref.Total, len(ref.PerLevel))
			}
			if o.stats.Retries == 0 {
				t.Errorf("failover stats %+v — the mid-query kill never forced a retry", o.stats)
			}
			t.Logf("failover: %d retries, %d replica reads, suspected %v",
				o.stats.Retries, o.stats.ReplicaReads, o.stats.Suspected)
			f.Close()
			checkGoroutines(t, before)
		})
	}
}

// replicaPair finds two nodes forming the complete replica set of some
// interior chain vertex while the source keeps a live replica: killing
// both makes that shard (and everything past it on the chain)
// unservable.
func replicaPair(t *testing.T, rv *ingest.Rendezvous, n, p int) (a, b cluster.NodeID) {
	t.Helper()
	srcReps := rv.Replicas(0)
	for v := graph.VertexID(1); v < graph.VertexID(n); v++ {
		reps := rv.Replicas(v)
		x, y := reps[0], reps[1]
		if x > y {
			x, y = y, x
		}
		if (srcReps[0] == x || srcReps[0] == y) && (srcReps[1] == x || srcReps[1] == y) {
			continue
		}
		return x, y
	}
	t.Fatal("no chain vertex with a usable replica pair")
	return 0, 0
}

// TestChaosFailoverBothReplicasDead pins the degradation contract when
// replication is actually exhausted: with both replicas of a required
// shard crashed mid-query, the default mode fails with
// ErrPartialCoverage (never a wrong answer, never a hang), and
// AllowPartial degrades to an explicit Coverage < 1 lower bound.
func TestChaosFailoverBothReplicasDead(t *testing.T) {
	const p, n = 5, 60
	rv := ingest.NewRendezvous(p, 2, 0)
	a, b := replicaPair(t, rv, n, p)
	t.Logf("killing replica pair %d,%d", a, b)

	for _, allowPartial := range []bool{false, true} {
		name := "default"
		if allowPartial {
			name = "allow-partial"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			f := failoverFabric(p, 1,
				cluster.Crash{Node: a, AfterSends: 20},
				cluster.Crash{Node: b, AfterSends: 25})

			type out struct {
				res query.BFSResult
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := query.FailoverBFS(context.Background(), f, chainDBs(t, n, p, rv),
					query.BFSConfig{
						Source: 0, Dest: n, MaxLevels: n + 10,
						Routing: query.Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, AllowPartial: allowPartial},
					}, fastFailover())
				done <- out{res, err}
			}()
			var o out
			select {
			case o = <-done:
			case <-time.After(90 * time.Second):
				t.Fatal("failover BFS wedged with both replicas dead")
			}
			if allowPartial {
				if o.err != nil {
					t.Fatalf("allow-partial run: %v", o.err)
				}
				if o.res.Found {
					t.Errorf("found the destination across an unservable shard")
				}
				if o.res.Coverage >= 1 || o.res.FringeDropped == 0 {
					t.Errorf("coverage %v, dropped %d — expected an explicit partial result",
						o.res.Coverage, o.res.FringeDropped)
				}
			} else if !errors.Is(o.err, query.ErrPartialCoverage) {
				t.Errorf("err = %v, want ErrPartialCoverage with every replica of a shard dead", o.err)
			}
			f.Close()
			checkGoroutines(t, before)
		})
	}
}

// TestChaosFailoverKHopDegradedLevels: a k-hop whose first attempt loses
// a back-end a few levels in must account for the work it threw away,
// exactly as BFS does — the failed attempt's completed levels show up as
// DegradedLevels and the node failure leaves a bfs.partial_coverage
// trace event.
func TestChaosFailoverKHopDegradedLevels(t *testing.T) {
	const p, n, k = 4, 120, 80
	rv := ingest.NewRendezvous(p, 2, 0)
	f := failoverFabric(p, 1, cluster.Crash{Node: 1, AfterSends: 60})
	defer f.Close()
	started := time.Now().UnixNano()

	type out struct {
		stats query.FailoverStats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		res, err := query.FailoverKHop(context.Background(), f, chainDBs(t, n, p, rv),
			query.KHopConfig{Source: 0, K: k, Routing: query.Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas}}, fastFailover())
		done <- out{*res.Failover, err}
	}()
	var o out
	select {
	case o = <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("failover k-hop wedged on the crashed back-end")
	}
	if o.err != nil {
		t.Fatalf("failover k-hop: %v", o.err)
	}
	if o.stats.Retries == 0 || o.stats.DegradedLevels == 0 {
		t.Errorf("failover stats %+v — want Retries > 0 and DegradedLevels > 0 after a mid-query kill", o.stats)
	}
	traced := false
	for _, ev := range obs.DefaultTracer().Snapshot() {
		if ev.Name == "bfs.partial_coverage" && ev.UnixNano >= started {
			traced = true
		}
	}
	if !traced {
		t.Error("the k-hop node failure emitted no bfs.partial_coverage trace event")
	}
}

// TestChaosFailoverServedBFS: a BFS served by the resident engine fails
// over exactly like a one-shot query. Node 1 of a 2-way replicated
// core.Engine is killed mid-search, and the BFS submitted through
// SubmitBFSAs still returns the serial answer after a retry.
func TestChaosFailoverServedBFS(t *testing.T) {
	const p, n = 4, 200
	rv := ingest.NewRendezvous(p, 2, 0)
	ref, err := query.ParallelBFS(context.Background(), cluster.NewInProc(1, 0), serialChainDB(t, n),
		query.BFSConfig{Source: 0, Dest: n, MaxLevels: n + 10})
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range seeds(t) {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			eng, err := core.New(core.Config{
				Backends: p,
				Backend:  "hashmap",
				Fault: &cluster.Plan{Seed: seed, DropProb: 0.005,
					Crashes: []cluster.Crash{{Node: 1, AfterSends: 60}}},
				Reliable:        true,
				ReliableOptions: fastReliable(),
				Ingest:          ingest.Config{Policy: func() ingest.Policy { return rv }, ReplicationFactor: 2},
				Failover:        fastFailover(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Lay the chain out as a 2-way ingest would, straight into the
			// back-ends, so the crash plan counts query traffic only.
			for v := 0; v < n; v++ {
				e := graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)}
				for _, node := range rv.Replicas(e.Src) {
					if err := eng.DB(int(node)).StoreEdges([]graph.Edge{e}); err != nil {
						t.Fatal(err)
					}
				}
			}
			qe, err := eng.NewQueryEngine(query.EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			q, err := eng.SubmitBFSAs(context.Background(), qe, query.DefaultTenantName,
				query.BFSConfig{Source: 0, Dest: n, MaxLevels: n + 10})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-q.Done():
			case <-time.After(90 * time.Second):
				t.Fatal("served BFS wedged on the crashed back-end")
			}
			if q.Err != nil {
				t.Fatalf("served BFS: %v", q.Err)
			}
			res := q.Result.(query.BFSResult)
			if res.Found != ref.Found || res.PathLength != ref.PathLength {
				t.Errorf("served answer (%v,%d) != serial reference (%v,%d)",
					res.Found, res.PathLength, ref.Found, ref.PathLength)
			}
			if res.Failover == nil || res.Failover.Retries == 0 {
				t.Errorf("failover stats %+v — the mid-query kill never forced a retry", res.Failover)
			}
			qe.Close()
			eng.Close()
			checkGoroutines(t, before)
		})
	}
}
