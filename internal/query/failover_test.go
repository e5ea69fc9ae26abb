package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
	"mssg/internal/ingest"
)

// replicate loads an undirected view of edges into p hashdb instances,
// storing each source vertex's records on all k of its rendezvous
// replicas — the layout a ReplicationFactor=k ingest produces.
func replicate(t *testing.T, edges []graph.Edge, rv *ingest.Rendezvous, p int) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		dbs[i] = hashdb.New()
	}
	for _, e := range edges {
		for _, d := range []graph.Edge{e, e.Reverse()} {
			for _, n := range rv.Replicas(d.Src) {
				if err := dbs[n].StoreEdges([]graph.Edge{d}); err != nil {
					t.Fatalf("StoreEdges: %v", err)
				}
			}
		}
	}
	return dbs
}

// without returns the ascending node list [0,p) minus dead.
func without(p int, dead ...cluster.NodeID) []cluster.NodeID {
	var out []cluster.NodeID
	for i := 0; i < p; i++ {
		skip := false
		for _, d := range dead {
			if cluster.NodeID(i) == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, cluster.NodeID(i))
		}
	}
	return out
}

// TestFailoverBFSReplicaReroute: with 2-way replication, excluding any
// single back-end must not change any BFS answer — dead primaries'
// shards are read from their surviving replicas, and the run reports
// the replica reads it performed.
func TestFailoverBFSReplicaReroute(t *testing.T) {
	const p, k = 4, 2
	edges, err := gen.Generate(gen.Config{Name: "fo", Vertices: 300, M: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	rv := ingest.NewRendezvous(p, k, 0)
	dist := refDist(edges, 0)
	dests := []graph.VertexID{7, 42, 123, 250, 299}
	for _, pipelined := range []bool{false, true} {
		for dead := cluster.NodeID(0); dead < p; dead++ {
			f := cluster.NewInProc(p, 0)
			dbs := replicate(t, edges, rv, p)
			var replicaReads int64
			for _, dest := range dests {
				cfg := BFSConfig{
					Source: 0, Dest: dest, Pipelined: pipelined, Threshold: 4,
					Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, dead)},
				}
				res, err := ParallelBFS(context.Background(), f, dbs, cfg)
				if err != nil {
					t.Fatalf("pipelined=%v dead=%d dest=%d: %v", pipelined, dead, dest, err)
				}
				want, reachable := dist[dest]
				if res.Found != reachable || (reachable && res.PathLength != want) {
					t.Fatalf("pipelined=%v dead=%d dest=%d: got (%v,%d), want (%v,%d)",
						pipelined, dead, dest, res.Found, res.PathLength, reachable, want)
				}
				if res.FringeDropped != 0 {
					t.Fatalf("dead=%d dest=%d: dropped %d vertices with a full replica set",
						dead, dest, res.FringeDropped)
				}
				if res.Coverage != 1 {
					t.Fatalf("dead=%d dest=%d: coverage %v, want 1", dead, dest, res.Coverage)
				}
				replicaReads += res.ReplicaReads
			}
			if replicaReads == 0 {
				t.Fatalf("pipelined=%v dead=%d: no replica reads recorded", pipelined, dead)
			}
			f.Close()
		}
	}
}

// TestFailoverBFSLevelStatsCarryReplicaReads: the per-level breakdown
// exposes where the failover work happened.
func TestFailoverBFSLevelStatsCarryReplicaReads(t *testing.T) {
	const p, k = 4, 2
	edges, err := gen.Generate(gen.Config{Name: "fl", Vertices: 200, M: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rv := ingest.NewRendezvous(p, k, 0)
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, edges, rv, p)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
		Source: 0, Dest: 199,
		Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ls := range res.LevelStats {
		sum += ls.ReplicaReads
	}
	if res.ReplicaReads == 0 || sum > res.ReplicaReads {
		t.Fatalf("replica reads: total %d, per-level sum %d", res.ReplicaReads, sum)
	}
}

// deadPairFor finds two nodes that form the complete replica set of some
// interior chain vertex (the first such vertex), while the source stays
// routable. BFS past that vertex is then impossible without its shard.
func deadPairFor(t *testing.T, rv *ingest.Rendezvous, n, p int) (a, b cluster.NodeID, cut graph.VertexID) {
	t.Helper()
	srcReps := rv.Replicas(0)
	for v := graph.VertexID(1); v < graph.VertexID(n); v++ {
		reps := rv.Replicas(v)
		x, y := reps[0], reps[1]
		if x > y {
			x, y = y, x
		}
		// The source must keep a live replica.
		if (srcReps[0] == x || srcReps[0] == y) && (srcReps[1] == x || srcReps[1] == y) {
			continue
		}
		return x, y, v
	}
	t.Fatal("no chain vertex with a usable replica pair")
	return 0, 0, 0
}

// TestFailoverBFSAllReplicasDead: when both replicas of a needed shard
// are excluded, the default run fails with ErrNoLiveReplica (an
// ErrPartialCoverage) on a chain that must pass through it; AllowPartial
// degrades to a best-effort result with explicit Coverage < 1.
func TestFailoverBFSAllReplicasDead(t *testing.T) {
	const p, k, n = 5, 2, 24
	rv := ingest.NewRendezvous(p, k, 0)
	edges := chainEdges(n)
	a, b, cut := deadPairFor(t, rv, n, p)
	t.Logf("killing nodes %d,%d; first unroutable chain vertex %d", a, b, cut)
	for _, pipelined := range []bool{false, true} {
		f := cluster.NewInProc(p, 0)
		dbs := replicate(t, edges, rv, p)
		cfg := BFSConfig{
			Source: 0, Dest: graph.VertexID(n), Pipelined: pipelined,
			Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, a, b)},
		}
		_, err := ParallelBFS(context.Background(), f, dbs, cfg)
		if !errors.Is(err, ErrNoLiveReplica) || !errors.Is(err, ErrPartialCoverage) {
			t.Fatalf("pipelined=%v: err = %v, want ErrNoLiveReplica", pipelined, err)
		}

		cfg.AllowPartial = true
		res, err := ParallelBFS(context.Background(), f, dbs, cfg)
		if err != nil {
			t.Fatalf("pipelined=%v AllowPartial: %v", pipelined, err)
		}
		if res.Found {
			t.Fatalf("pipelined=%v: found dest across a severed chain", pipelined)
		}
		if res.FringeDropped == 0 || res.Coverage >= 1 {
			t.Fatalf("pipelined=%v: dropped=%d coverage=%v, want drops and coverage < 1",
				pipelined, res.FringeDropped, res.Coverage)
		}
		f.Close()
	}
}

// TestFailoverBFSUnroutableSource: a source with no live replica is a
// deterministic failure (or an empty, zero-coverage result under
// AllowPartial), not a hang.
func TestFailoverBFSUnroutableSource(t *testing.T) {
	const p, k = 4, 2
	rv := ingest.NewRendezvous(p, k, 0)
	src := graph.VertexID(3)
	reps := rv.Replicas(src)
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, chainEdges(6), rv, p)
	cfg := BFSConfig{
		Source: src, Dest: 6,
		Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, reps[0], reps[1])},
	}
	if _, err := ParallelBFS(context.Background(), f, dbs, cfg); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("err = %v, want ErrNoLiveReplica", err)
	}
	cfg.AllowPartial = true
	res, err := ParallelBFS(context.Background(), f, dbs, cfg)
	if err != nil || res.Found || res.Coverage != 0 {
		t.Fatalf("AllowPartial: res=%+v err=%v, want unfound zero-coverage result", res, err)
	}
}

// TestFailoverBFSReturnPath: path reconstruction follows the same
// replica routing as the search, so it works with a back-end excluded.
func TestFailoverBFSReturnPath(t *testing.T) {
	const p, k, n = 4, 2, 16
	rv := ingest.NewRendezvous(p, k, 0)
	edges := chainEdges(n)
	for dead := cluster.NodeID(0); dead < p; dead++ {
		f := cluster.NewInProc(p, 0)
		dbs := replicate(t, edges, rv, p)
		res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: graph.VertexID(n), ReturnPath: true,
			Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, dead)},
		})
		if err != nil {
			t.Fatalf("dead=%d: %v", dead, err)
		}
		want := make([]graph.VertexID, n+1)
		for i := range want {
			want[i] = graph.VertexID(i)
		}
		if !res.Found || !reflect.DeepEqual(res.Path, want) {
			t.Fatalf("dead=%d: path %v, want %v", dead, res.Path, want)
		}
		f.Close()
	}
}

// TestFailoverKHopReplicaReroute: the k-hop count is identical with any
// single back-end excluded.
func TestFailoverKHopReplicaReroute(t *testing.T) {
	const p, k = 4, 2
	edges, err := gen.Generate(gen.Config{Name: "fk", Vertices: 250, M: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	rv := ingest.NewRendezvous(p, k, 0)
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, edges, rv, p)
	full, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{
		Source: 0, K: 4, Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas},
	})
	if err != nil {
		t.Fatal(err)
	}
	for dead := cluster.NodeID(0); dead < p; dead++ {
		res, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{
			Source: 0, K: 4, Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, dead)},
		})
		if err != nil {
			t.Fatalf("dead=%d: %v", dead, err)
		}
		if !reflect.DeepEqual(res.PerLevel, full.PerLevel) || res.Total != full.Total {
			t.Fatalf("dead=%d: PerLevel %v Total %d, want %v / %d",
				dead, res.PerLevel, res.Total, full.PerLevel, full.Total)
		}
		if res.ReplicaReads == 0 {
			t.Fatalf("dead=%d: no replica reads recorded", dead)
		}
		if res.Coverage != 1 {
			t.Fatalf("dead=%d: coverage %v", dead, res.Coverage)
		}
	}
}

// TestFailoverKHopAllReplicasDead mirrors the BFS severed-shard cases.
func TestFailoverKHopAllReplicasDead(t *testing.T) {
	const p, k, n = 5, 2, 24
	rv := ingest.NewRendezvous(p, k, 0)
	edges := chainEdges(n)
	a, b, _ := deadPairFor(t, rv, n, p)
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, edges, rv, p)
	cfg := KHopConfig{
		Source: 0, K: n, Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, a, b)},
	}
	if _, err := ParallelKHop(context.Background(), f, dbs, cfg); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("err = %v, want ErrNoLiveReplica", err)
	}
	cfg.AllowPartial = true
	res, err := ParallelKHop(context.Background(), f, dbs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 || res.Coverage >= 1 {
		t.Fatalf("dropped=%d coverage=%v, want drops and coverage < 1", res.Dropped, res.Coverage)
	}
}

// TestFailoverRosterValidation: malformed active sets are rejected up
// front instead of desynchronizing the collectives.
func TestFailoverRosterValidation(t *testing.T) {
	f := cluster.NewInProc(3, 0)
	defer f.Close()
	dbs := partition(t, chainEdges(4), 3)
	for _, bad := range [][]cluster.NodeID{
		{},           // empty
		{1, 0},       // unsorted
		{0, 0, 1},    // duplicate
		{0, 1, 2, 3}, // out of range
	} {
		if _, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
			Source: 0, Dest: 4, Routing: Routing{ActiveNodes: bad},
		}); err == nil {
			t.Fatalf("active set %v accepted", bad)
		}
	}
}

// stubHealth marks a fixed set of nodes dead.
type stubHealth map[cluster.NodeID]bool

func (s stubHealth) Alive(n cluster.NodeID) bool { return !s[n] }

// TestFailoverBFSHealthViewExclusion: FailoverBFS consults the health
// view up front — a node already known dead is excluded with no failed
// attempt at all.
func TestFailoverBFSHealthViewExclusion(t *testing.T) {
	const p, k = 4, 2
	rv := ingest.NewRendezvous(p, k, 0)
	edges := chainEdges(12)
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, edges, rv, p)
	res, err := FailoverBFS(context.Background(), f, dbs, BFSConfig{
		Source: 0, Dest: 12, Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas},
	}, FailoverOptions{Health: stubHealth{2: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.PathLength != 12 {
		t.Fatalf("got (%v,%d), want (true,12)", res.Found, res.PathLength)
	}
	if res.Failover == nil || res.Failover.Retries != 0 {
		t.Fatalf("failover stats %+v, want zero retries", res.Failover)
	}
	if res.ReplicaReads == 0 {
		t.Fatal("expected replica reads with a dead primary")
	}
}

// TestFailoverLoopRetriesAndSuspects drives the shared retry engine
// directly: the first attempt fails naming a down node, the second runs
// without it and succeeds, and the stats account for both.
func TestFailoverLoopRetriesAndSuspects(t *testing.T) {
	f := cluster.NewInProc(4, 0)
	defer f.Close()
	var attempts [][]cluster.NodeID
	stats, err := failoverLoop(context.Background(), f, nil,
		FailoverOptions{BackoffInitial: time.Millisecond},
		func(ctx context.Context, active []cluster.NodeID) (int32, error) {
			attempts = append(attempts, append([]cluster.NodeID(nil), active...))
			if len(attempts) == 1 {
				return 2, fmt.Errorf("%w: %w", ErrPartialCoverage,
					&cluster.NodeDownError{Node: 1, Reason: "test kill"})
			}
			return 5, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 {
		t.Fatalf("%d attempts, want 2", len(attempts))
	}
	if !reflect.DeepEqual(attempts[0], []cluster.NodeID{0, 1, 2, 3}) ||
		!reflect.DeepEqual(attempts[1], []cluster.NodeID{0, 2, 3}) {
		t.Fatalf("attempt rosters %v", attempts)
	}
	if stats.Retries != 1 || stats.DegradedLevels != 2 ||
		!reflect.DeepEqual(stats.Suspected, []cluster.NodeID{1}) {
		t.Fatalf("stats %+v", stats)
	}
}

// TestFailoverLoopNoLiveReplicaIsTerminal: ErrNoLiveReplica must not be
// retried — no surviving roster can serve the missing shard.
func TestFailoverLoopNoLiveReplicaIsTerminal(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	calls := 0
	_, err := failoverLoop(context.Background(), f, nil,
		FailoverOptions{BackoffInitial: time.Millisecond},
		func(ctx context.Context, active []cluster.NodeID) (int32, error) {
			calls++
			return 0, fmt.Errorf("level 3: %w", ErrNoLiveReplica)
		})
	if !errors.Is(err, ErrNoLiveReplica) || calls != 1 {
		t.Fatalf("calls=%d err=%v, want one terminal attempt", calls, err)
	}
}

// TestFailoverLoopExhaustsRetries: a persistently failing cluster stops
// after MaxRetries and returns the last error.
func TestFailoverLoopExhaustsRetries(t *testing.T) {
	f := cluster.NewInProc(4, 0)
	defer f.Close()
	calls := 0
	_, err := failoverLoop(context.Background(), f, nil,
		FailoverOptions{MaxRetries: 2, BackoffInitial: time.Millisecond},
		func(ctx context.Context, active []cluster.NodeID) (int32, error) {
			calls++
			return 1, fmt.Errorf("%w: still flaky", cluster.ErrTimeout)
		})
	if calls != 3 || !errors.Is(err, cluster.ErrTimeout) {
		t.Fatalf("calls=%d err=%v, want 3 attempts then the timeout", calls, err)
	}
}

// TestBackoffJitterSpread is the lockstep-retry regression test: the
// failover sleeps must spread over [d·(1−j), d·(1+j)) and actually vary,
// so queries failed together by one crash do not hammer the recovering
// cluster in unison.
func TestBackoffJitterSpread(t *testing.T) {
	const d = time.Second
	lo, hi := d, d
	distinct := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		got := jitterBackoff(d, 0.5)
		if got < d/2 || got >= d+d/2 {
			t.Fatalf("jittered delay %v outside [%v, %v)", got, d/2, d+d/2)
		}
		distinct[got] = true
		if got < lo {
			lo = got
		}
		if got > hi {
			hi = got
		}
	}
	if len(distinct) < 50 {
		t.Fatalf("only %d distinct delays in 200 draws — not jittering", len(distinct))
	}
	if hi-lo < d/4 {
		t.Fatalf("200 draws span only %v of the %v window", hi-lo, d)
	}
	if got := jitterBackoff(d, 0); got != d {
		t.Fatalf("disabled jitter changed the delay to %v", got)
	}
	// Option resolution: zero means the 0.5 default, negative disables,
	// and values above 1 clamp (a delay can shrink at most to zero).
	if j := (FailoverOptions{}).withDefaults().BackoffJitter; j != 0.5 {
		t.Fatalf("default jitter = %v, want 0.5", j)
	}
	if j := (FailoverOptions{BackoffJitter: -1}).withDefaults().BackoffJitter; j != 0 {
		t.Fatalf("negative jitter resolved to %v, want 0 (disabled)", j)
	}
	if j := (FailoverOptions{BackoffJitter: 3}).withDefaults().BackoffJitter; j != 1 {
		t.Fatalf("jitter 3 resolved to %v, want 1", j)
	}
}

// flappingHealth declares every node dead for the first few Alive polls,
// then heals — the shape of a conviction flap right after a crash.
type flappingHealth struct{ deadPolls int }

func (h *flappingHealth) Alive(cluster.NodeID) bool {
	if h.deadPolls > 0 {
		h.deadPolls--
		return false
	}
	return true
}

// TestFailoverLoopEmptyViewHeals: an empty liveness view right after a
// crash is a retryable flap, not an instant ErrNoLiveReplica — the
// attempt waits out the backoff and runs once the view heals.
func TestFailoverLoopEmptyViewHeals(t *testing.T) {
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	h := &flappingHealth{deadPolls: 4} // two 2-node activeSet evaluations
	calls := 0
	stats, err := failoverLoop(context.Background(), f, nil,
		FailoverOptions{Health: h, BackoffInitial: time.Millisecond},
		func(ctx context.Context, active []cluster.NodeID) (int32, error) {
			calls++
			if !reflect.DeepEqual(active, []cluster.NodeID{0, 1}) {
				return 0, fmt.Errorf("attempt on %v, want the healed full view", active)
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || stats.Retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 1 attempt after 2 empty-view retries", calls, stats.Retries)
	}

	// A view that never heals still exhausts the retry budget and is
	// terminal — no attempt ever ran.
	h2 := &flappingHealth{deadPolls: 1 << 30}
	calls = 0
	_, err = failoverLoop(context.Background(), f, nil,
		FailoverOptions{Health: h2, MaxRetries: 2, BackoffInitial: time.Millisecond},
		func(ctx context.Context, active []cluster.NodeID) (int32, error) {
			calls++
			return 0, nil
		})
	if !errors.Is(err, ErrNoLiveReplica) || calls != 0 {
		t.Fatalf("calls=%d err=%v, want zero attempts and ErrNoLiveReplica", calls, err)
	}
}
