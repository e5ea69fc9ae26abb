package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mssg/internal/cluster"
)

// tenancy_test.go is the multi-tenant serving conformance suite
// (`make tenants`): deficit-round-robin fairness under flood, per-tenant
// queue isolation, per-tenant in-flight caps, the
// deadline-starts-at-execution property under a saturated queue, and the
// engine-level result cache. All tests use synthetic query functions so
// timing is controlled by the test, not by graph size; they are meant to
// run under -race.

// sleepFn is a query that takes a fixed wall time, honouring ctx.
func sleepFn(d time.Duration) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		select {
		case <-time.After(d):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

// closedLoop runs n queries one at a time under tenant and returns each
// query's end-to-end latency.
func closedLoop(t *testing.T, e *Engine, tenant string, n int, d time.Duration) []time.Duration {
	t.Helper()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		q, err := e.SubmitFuncAs(context.Background(), tenant, "light", sleepFn(d))
		if err != nil {
			t.Fatalf("light submit %d: %v", i, err)
		}
		if _, err := q.Wait(); err != nil {
			t.Fatalf("light query %d: %v", i, err)
		}
		lat = append(lat, time.Since(start))
	}
	return lat
}

// TestTenantFairnessUnderFlood is the headline fairness conformance
// test: a heavy tenant floods the engine open-loop while a light tenant
// runs a closed-loop workload. With per-tenant queues and DRR dispatch
// the light tenant's p95 must stay within a small factor of its solo
// (uncontended) p95; with a single shared FIFO it would sit behind the
// whole heavy backlog and blow up by orders of magnitude.
func TestTenantFairnessUnderFlood(t *testing.T) {
	const qd = 2 * time.Millisecond
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight: 2,
		QueueDepth:  512,
		Tenants: map[string]TenantConfig{
			"heavy": {Weight: 1},
			"light": {Weight: 1},
		},
	})

	// Solo baseline: the light tenant alone on the engine.
	solo := percentileDur(closedLoop(t, e, "light", 20, qd), 0.95)

	// Flood: the heavy tenant dumps a deep backlog, then the light
	// tenant runs the same closed-loop workload against it.
	var heavy []*Query
	for i := 0; i < 300; i++ {
		q, err := e.SubmitFuncAs(context.Background(), "heavy", "heavy", sleepFn(qd))
		if err != nil {
			t.Fatalf("heavy submit %d: %v", i, err)
		}
		heavy = append(heavy, q)
	}
	contended := percentileDur(closedLoop(t, e, "light", 20, qd), 0.95)
	for _, q := range heavy {
		q.Wait()
	}

	// The 3x factor is the acceptance bound from the fairness bench; the
	// absolute slack absorbs scheduler jitter on loaded CI machines.
	// The heavy backlog alone is worth ~300ms of FIFO wait, so a shared
	// queue fails this by a wide margin.
	limit := 3*solo + 50*time.Millisecond
	if contended > limit {
		t.Fatalf("light tenant p95 %v under flood, limit %v (solo %v)", contended, limit, solo)
	}

	st := e.Stats()
	if st.Tenants["heavy"].Completed != 300 {
		t.Fatalf("heavy completed = %d, want 300", st.Tenants["heavy"].Completed)
	}
	if st.Tenants["light"].Completed != 40 {
		t.Fatalf("light completed = %d, want 40", st.Tenants["light"].Completed)
	}
}

// TestTenantWeightedShare pins the DRR arithmetic: with a 3:1 weight
// ratio and both tenants backlogged, dispatch order interleaves three
// weight-3 queries per weight-1 query.
func TestTenantWeightedShare(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight: 1,
		QueueDepth:  64,
		Tenants: map[string]TenantConfig{
			"gold":   {Weight: 3},
			"bronze": {Weight: 1},
		},
	})

	// Hold the only slot so both backlogs build before dispatch starts.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := e.SubmitFunc(context.Background(), "blocker", func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	mark := func(tenant string) func(ctx context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	var qs []*Query
	for i := 0; i < 24; i++ {
		g, err := e.SubmitFuncAs(context.Background(), "gold", "g", mark("gold"))
		if err != nil {
			t.Fatalf("gold %d: %v", i, err)
		}
		b, err := e.SubmitFuncAs(context.Background(), "bronze", "b", mark("bronze"))
		if err != nil {
			t.Fatalf("bronze %d: %v", i, err)
		}
		qs = append(qs, g, b)
	}
	close(release)
	blocker.Wait()
	for _, q := range qs {
		q.Wait()
	}

	// While both tenants are backlogged (first 16 dispatches: 4 full
	// rotor turns), gold must get 3 of every 4 slots. MaxInFlight=1
	// serializes execution, so `order` is the dispatch order.
	gold := 0
	for _, tn := range order[:16] {
		if tn == "gold" {
			gold++
		}
	}
	if gold < 11 || gold > 13 {
		t.Fatalf("gold got %d of first 16 dispatch slots, want ~12 (3:1 weights); order %v", gold, order[:16])
	}
}

// TestTenantQueueIsolation pins per-tenant rejection: one tenant filling
// its own queue is rejected without consuming any other tenant's
// capacity.
func TestTenantQueueIsolation(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight: 1,
		QueueDepth:  8,
		Tenants: map[string]TenantConfig{
			"greedy": {QueueDepth: 1},
			"modest": {QueueDepth: 4},
		},
	})

	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := e.SubmitFuncAs(context.Background(), "greedy", "blocker", func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started // greedy occupies the only execution slot

	q1, err := e.SubmitFuncAs(context.Background(), "greedy", "q1", sleepFn(0))
	if err != nil {
		t.Fatalf("greedy q1 should queue: %v", err)
	}
	// greedy's queue (depth 1) is now full: next greedy submit bounces.
	if _, err := e.SubmitFuncAs(context.Background(), "greedy", "q2", sleepFn(0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("greedy q2: got %v, want ErrRejected", err)
	}
	// ...but modest still has its own queue.
	var modest []*Query
	for i := 0; i < 4; i++ {
		q, err := e.SubmitFuncAs(context.Background(), "modest", fmt.Sprint("m", i), sleepFn(0))
		if err != nil {
			t.Fatalf("modest %d rejected by greedy's backlog: %v", i, err)
		}
		modest = append(modest, q)
	}
	if _, err := e.SubmitFuncAs(context.Background(), "modest", "m4", sleepFn(0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("modest over its own depth: got %v, want ErrRejected", err)
	}

	close(release)
	blocker.Wait()
	q1.Wait()
	for _, q := range modest {
		q.Wait()
	}

	st := e.Stats()
	if st.Tenants["greedy"].Rejected != 1 || st.Tenants["modest"].Rejected != 1 {
		t.Fatalf("per-tenant rejected = %+v", st.Tenants)
	}
}

// TestTenantInFlightCap pins the per-tenant concurrency cap: a capped
// tenant's second query waits even with free engine slots, while other
// tenants use those slots.
func TestTenantInFlightCap(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight: 4,
		QueueDepth:  8,
		Tenants: map[string]TenantConfig{
			"capped": {MaxInFlight: 1},
		},
	})

	release := make(chan struct{})
	aStarted := make(chan struct{})
	a1, err := e.SubmitFuncAs(context.Background(), "capped", "a1", func(ctx context.Context) (any, error) {
		close(aStarted)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("a1: %v", err)
	}
	<-aStarted

	a2Started := make(chan struct{})
	a2, err := e.SubmitFuncAs(context.Background(), "capped", "a2", func(ctx context.Context) (any, error) {
		close(a2Started)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("a2: %v", err)
	}

	// Another tenant must run while capped's a2 waits behind its cap.
	b, err := e.SubmitFuncAs(context.Background(), "other", "b", sleepFn(0))
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatalf("b failed: %v", err)
	}
	select {
	case <-a2Started:
		t.Fatal("a2 ran while a1 held capped's only in-flight slot")
	default:
	}

	close(release)
	if _, err := a1.Wait(); err != nil {
		t.Fatalf("a1: %v", err)
	}
	if _, err := a2.Wait(); err != nil {
		t.Fatalf("a2 never ran after a1 released the cap: %v", err)
	}
}

// TestDeadlineStartsAtExecution is the saturated-queue regression test:
// a query that waits in the queue LONGER than the default deadline must
// still complete, because the deadline budget starts at execution, not
// at admission. An engine that armed the timer at enqueue fails this
// with context.DeadlineExceeded.
func TestDeadlineStartsAtExecution(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight:     1,
		QueueDepth:      4,
		DefaultDeadline: 100 * time.Millisecond,
	})

	started := make(chan struct{})
	blocker, err := e.SubmitFunc(context.Background(), "blocker", func(ctx context.Context) (any, error) {
		close(started)
		// Hold the only slot for 3x the default deadline, deliberately
		// ignoring ctx: the blocker itself may be cancelled, the point
		// is that the slot stays occupied.
		time.Sleep(300 * time.Millisecond)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started

	q, err := e.SubmitFunc(context.Background(), "victim", sleepFn(time.Millisecond))
	if err != nil {
		t.Fatalf("victim submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("queued query failed after long queue wait: %v (deadline must start at execution)", err)
	}
	if q.QueueWait < 250*time.Millisecond {
		t.Fatalf("QueueWait = %v, want >= 250ms (victim should have waited out the blocker)", q.QueueWait)
	}
	if exec := q.Finished.Sub(q.Started); exec > 100*time.Millisecond {
		t.Fatalf("execution took %v, deadline budget was 100ms", exec)
	}
	blocker.Wait()
}

// epochExec is the direct executor at a fixed placement epoch.
type epochExec struct {
	direct
	epoch uint64
}

func (x *epochExec) Epoch() uint64 { return x.epoch }

// TestEngineResultCache pins the engine-level cache path: a repeated
// identical BFS is answered from the cache (same result value, no
// second execution) and a generation bump structurally invalidates it.
func TestEngineResultCache(t *testing.T) {
	var gen uint64 = 7
	var mu sync.Mutex
	genFn := func() uint64 { mu.Lock(); defer mu.Unlock(); return gen }

	x := &epochExec{epoch: 3}
	e, f, dbs, _ := engineGraph(t, 2, EngineConfig{
		MaxInFlight: 2,
		QueueDepth:  16,
		CacheBytes:  1 << 20,
		Generation:  genFn,
		Executor:    x,
	})
	x.direct = direct{f, dbs}

	cfg := BFSConfig{Source: 3, Dest: 17}
	q1, err := e.BFSAs(context.Background(), "alice", cfg)
	if err != nil {
		t.Fatalf("first BFS: %v", err)
	}
	r1, err := q1.Wait()
	if err != nil {
		t.Fatalf("first BFS: %v", err)
	}
	if q1.CacheHit {
		t.Fatal("first query hit an empty cache")
	}
	if r1.(BFSResult).Generation != 7 {
		t.Fatalf("result generation = %d, want 7", r1.(BFSResult).Generation)
	}

	// Identical query, any tenant: served from cache.
	q2, err := e.BFSAs(context.Background(), "bob", cfg)
	if err != nil {
		t.Fatalf("second BFS: %v", err)
	}
	r2, err := q2.Wait()
	if err != nil {
		t.Fatalf("second BFS: %v", err)
	}
	if !q2.CacheHit {
		t.Fatal("repeated identical query missed the cache")
	}
	if r1.(BFSResult).PathLength != r2.(BFSResult).PathLength ||
		r1.(BFSResult).Found != r2.(BFSResult).Found {
		t.Fatalf("cached result differs: %+v vs %+v", r1, r2)
	}
	if e.Stats().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", e.Stats().CacheHits)
	}

	// A generation bump (ingest commit) makes the key stop matching.
	mu.Lock()
	gen = 8
	mu.Unlock()
	if n := e.InvalidateCache(); n != 1 {
		t.Fatalf("InvalidateCache purged %d entries, want 1", n)
	}
	q3, err := e.BFSAs(context.Background(), "alice", cfg)
	if err != nil {
		t.Fatalf("third BFS: %v", err)
	}
	if _, err := q3.Wait(); err != nil {
		t.Fatalf("third BFS: %v", err)
	}
	if q3.CacheHit {
		t.Fatal("cache hit across a generation bump")
	}
	if q3.Generation != 8 {
		t.Fatalf("post-bump pinned generation = %d, want 8", q3.Generation)
	}
}

// TestEngineCacheSkipsInjectedState pins non-cacheability: a BFS with a
// caller-injected visited constructor or node roster must never be
// served from (or stored in) the cache.
func TestEngineCacheSkipsInjectedState(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{
		CacheBytes: 1 << 20,
	})
	cfg := BFSConfig{Source: 3, Dest: 17, Routing: Routing{ActiveNodes: nil}}
	cfg.NewVisited = func(node cluster.NodeID) (Visited, error) { return NewMemVisited(), nil }
	for i := 0; i < 2; i++ {
		q, err := e.BFS(context.Background(), cfg)
		if err != nil {
			t.Fatalf("BFS %d: %v", i, err)
		}
		if _, err := q.Wait(); err != nil {
			t.Fatalf("BFS %d: %v", i, err)
		}
		if q.CacheHit {
			t.Fatal("query with injected visited state served from cache")
		}
	}
	if e.Cache().Len() != 0 {
		t.Fatalf("uncacheable query stored %d entries", e.Cache().Len())
	}
}

// TestTenantNameValidation rejects names that cannot serve as metric
// segments or wire tokens.
func TestTenantNameValidation(t *testing.T) {
	e, _, _, _ := engineGraph(t, 2, EngineConfig{})
	for _, bad := range []string{"with space", "semi;colon", "a/b", "x\n", string(make([]byte, 65))} {
		if _, err := e.SubmitFuncAs(context.Background(), bad, "q", sleepFn(0)); err == nil {
			t.Fatalf("tenant %q accepted", bad)
		}
	}
	if _, err := NewEngine(e.f, e.dbs, EngineConfig{Tenants: map[string]TenantConfig{"bad name": {}}}); err == nil {
		t.Fatal("NewEngine accepted an invalid configured tenant name")
	}
}
