package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
	"mssg/internal/query/qcache"
)

// Engine is the resident query scheduler: the piece that turns the
// one-shot query functions into a serving system. It owns one fabric and
// its per-node databases, admits queries into per-tenant bounded queues,
// dispatches them with deficit-round-robin weighted fair sharing, runs
// at most MaxInFlight of them concurrently (all queries are pure readers
// under the graphdb concurrency contract, so they need no mutual
// exclusion against each other), applies per-query deadlines through
// context cancellation — starting the clock when the query begins
// executing, never while it waits in a queue — and drains in-flight work
// on Close.
//
// Multi-tenancy (DESIGN.md §16): every query is admitted under a tenant
// name. Each tenant has its own FIFO queue with its own depth (so one
// aggressive client fills only its own queue and is rejected
// per-tenant), a weight (its deficit-round-robin share of dispatch
// slots), and an optional per-tenant in-flight cap. A tenant that never
// configures anything gets the DefaultTenant template, and the
// parameterless Submit entry points use the "default" tenant, so
// single-tenant callers see the PR 5 behaviour unchanged.
//
// Results are cached (when a cache is configured) under the key
// (placement epoch, graph generation, analysis, canonical params): a
// repeated identical query against an unchanged graph returns the
// cached result without consuming any tenant quota, and an ingest
// commit or placement epoch swap structurally invalidates every prior
// entry because the key stops matching.
//
// Concurrency safety of a shared fabric comes from the per-query channel
// namespaces: every ParallelBFS/ParallelKHop call leases its own block
// of ChannelIDs, so interleaved queries never see each other's traffic.

// DefaultTenantName is the tenant every tenant-less submit runs under.
const DefaultTenantName = "default"

// TenantConfig is one tenant's scheduling contract. The zero value
// selects the defaults noted per field.
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin quantum: per scheduler
	// rotation a tenant may dispatch Weight queries before the rotor
	// moves on, so a weight-4 tenant gets 4× the dispatch share of a
	// weight-1 tenant under contention. <= 0 means 1.
	Weight int
	// MaxInFlight caps this tenant's concurrently executing queries,
	// inside the engine-wide MaxInFlight. <= 0 means no per-tenant cap
	// (the engine-wide cap still applies).
	MaxInFlight int
	// QueueDepth bounds this tenant's admitted-but-not-running queries;
	// a full tenant queue rejects that tenant's submissions with
	// ErrRejected without affecting anyone else. <= 0 inherits the
	// engine-wide QueueDepth.
	QueueDepth int
}

// EngineConfig tunes admission control. The zero value selects the
// defaults noted per field.
type EngineConfig struct {
	// MaxInFlight bounds concurrently executing queries across all
	// tenants; <= 0 means 4.
	MaxInFlight int
	// QueueDepth bounds queries admitted but not yet running, per
	// tenant; once a tenant's queue is full its Submit fails fast with
	// ErrRejected. <= 0 means 16.
	QueueDepth int
	// DefaultDeadline bounds each query's execution unless its submit
	// ctx carries an earlier deadline; 0 means none. The deadline starts
	// when the query begins executing: queue wait is accounted
	// separately (query.engine.queue_wait_ns) and never consumes the
	// execution budget.
	DefaultDeadline time.Duration
	// Tenants declares per-tenant scheduling contracts, keyed by tenant
	// name. Tenants not listed are created on first use from
	// DefaultTenant.
	Tenants map[string]TenantConfig
	// DefaultTenant is the template for tenants absent from Tenants
	// (including the built-in "default" tenant).
	DefaultTenant TenantConfig
	// CacheBytes, when > 0, enables the epoch-keyed result cache with
	// this memory budget. Ignored when Cache is set.
	CacheBytes int64
	// Cache injects a result cache built elsewhere (so several engines
	// can share one, or tests can use a private registry). Nil with
	// CacheBytes <= 0 disables caching.
	Cache *qcache.Cache
	// Executor runs every query the engine admits and supplies the
	// placement epoch for cache keys and snapshot pinning.
	// core.Engine.NewQueryEngine sets the core engine, so served queries
	// take its placement routing and failover. Nil runs the kernel
	// directly on NewEngine's fabric and databases, at epoch 0.
	Executor Executor
	// Generation overrides the graph-generation source for cache keys
	// and snapshot pinning. Nil derives it from the engine's databases
	// via graphdb.GraphsGeneration.
	Generation func() uint64
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// ErrRejected is returned by Submit when the submitting tenant's queue
// is full.
var ErrRejected = errors.New("query: tenant queue full, query rejected")

// ErrEngineClosed is returned by Submit after Close has begun.
var ErrEngineClosed = errors.New("query: engine closed")

// QueryStatus is a submitted query's lifecycle state.
type QueryStatus int32

const (
	StatusQueued QueryStatus = iota
	StatusRunning
	StatusDone
)

func (s QueryStatus) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	}
	return fmt.Sprintf("QueryStatus(%d)", int32(s))
}

// Query is one admitted query's ticket. Result and Err are valid only
// after Done() is closed (or Wait returns).
type Query struct {
	// ID is the engine-local admission sequence number.
	ID uint64
	// Label names the query for status reporting (analysis name or a
	// caller-chosen string).
	Label string
	// Tenant is the tenant the query was admitted under.
	Tenant string
	// Generation is the combined graph generation pinned at admission:
	// the committed graph state the query ran against (see
	// BFSResult.Generation). For a cache hit it is the generation the
	// cached result was computed at, which by key construction equals
	// the current one.
	Generation uint64
	// CacheHit reports that the result was served from the result cache
	// without executing (Started/Finished collapse to Submitted).
	CacheHit bool
	// QueueWait is the admission-to-execution delay, measured when the
	// query starts executing. It is excluded from the deadline budget.
	QueueWait time.Duration

	fn       func(ctx context.Context) (any, error)
	ctx      context.Context
	status   atomic.Int32
	done     chan struct{}
	cacheKey string // canonical params; "" = uncacheable
	epoch    uint64 // placement epoch pinned at admission

	Result any
	Err    error

	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Status reports the query's current lifecycle state.
func (q *Query) Status() QueryStatus { return QueryStatus(q.status.Load()) }

// Done is closed when the query finishes (successfully or not).
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the query finishes and returns its outcome.
func (q *Query) Wait() (any, error) {
	<-q.done
	return q.Result, q.Err
}

// tenantState is one tenant's queue and accounting. Guarded by
// Engine.mu.
type tenantState struct {
	name        string
	weight      int
	maxInFlight int // 0 = no per-tenant cap
	queueDepth  int
	queue       []*Query
	inFlight    int
	stats       TenantStats
	met         *tenantMetrics
}

// dispatchable reports whether the tenant has a queued query that may
// start now.
func (t *tenantState) dispatchable() bool {
	return len(t.queue) > 0 && (t.maxInFlight <= 0 || t.inFlight < t.maxInFlight)
}

// Engine is a long-lived concurrent query scheduler over one fabric.
type Engine struct {
	f     cluster.Fabric
	dbs   []graphdb.Graph
	cfg   EngineConfig
	cache *qcache.Cache
	genFn func() uint64

	sem     chan struct{} // engine-wide MaxInFlight slots
	wg      sync.WaitGroup
	dispTkn chan struct{} // closed when the dispatcher exits

	mu          sync.Mutex
	cond        *sync.Cond // signalled on submit, completion, close
	closed      bool
	nextID      uint64
	stats       EngineStats
	tenants     map[string]*tenantState
	order       []string // rotor order (registration order)
	rrPos       int      // rotor position into order
	credit      int      // remaining DRR credit of order[rrPos]
	queuedTotal int
}

// EngineStats is a point-in-time admission summary.
type EngineStats struct {
	Admitted  int64
	Rejected  int64
	Completed int64
	Failed    int64
	Cancelled int64
	// CacheHits counts queries answered from the result cache without
	// executing (not included in Admitted).
	CacheHits int64
	// Tenants breaks the admission counters down per tenant.
	Tenants map[string]TenantStats
}

// TenantStats is one tenant's admission summary.
type TenantStats struct {
	Admitted  int64
	Rejected  int64
	Completed int64
	Failed    int64
	Cancelled int64
	CacheHits int64
}

// NewEngine builds a resident engine over f and its per-node databases.
// The engine does not own them: Close drains queries but leaves fabric
// and databases open for the caller.
func NewEngine(f cluster.Fabric, dbs []graphdb.Graph, cfg EngineConfig) (*Engine, error) {
	if len(dbs) != f.Nodes() {
		return nil, fmt.Errorf("query: %d databases for %d nodes", len(dbs), f.Nodes())
	}
	cfg = cfg.withDefaults()
	if cfg.Executor == nil {
		cfg.Executor = direct{f, dbs}
	}
	for name := range cfg.Tenants {
		if err := validTenant(name); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		f: f, dbs: dbs, cfg: cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		dispTkn: make(chan struct{}),
		tenants: make(map[string]*tenantState),
	}
	e.cond = sync.NewCond(&e.mu)
	e.cache = cfg.Cache
	if e.cache == nil && cfg.CacheBytes > 0 {
		e.cache = qcache.New(cfg.CacheBytes, nil)
	}
	e.genFn = cfg.Generation
	if e.genFn == nil {
		e.genFn = func() uint64 { return graphdb.GraphsGeneration(e.dbs) }
	}
	go e.dispatch()
	return e, nil
}

// validTenant bounds tenant names so they are safe as metric-name
// segments and wire tokens.
func validTenant(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("query: tenant name %q must be 1-64 characters", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("query: tenant name %q may only contain letters, digits, '-', '_', '.'", name)
		}
	}
	return nil
}

// tenantLocked finds or lazily registers a tenant. Caller holds e.mu.
func (e *Engine) tenantLocked(name string) *tenantState {
	if t, ok := e.tenants[name]; ok {
		return t
	}
	cfg, ok := e.cfg.Tenants[name]
	if !ok {
		cfg = e.cfg.DefaultTenant
	}
	t := &tenantState{
		name:        name,
		weight:      cfg.Weight,
		maxInFlight: cfg.MaxInFlight,
		queueDepth:  cfg.QueueDepth,
		met:         tm(name),
	}
	if t.weight <= 0 {
		t.weight = 1
	}
	if t.queueDepth <= 0 {
		t.queueDepth = e.cfg.QueueDepth
	}
	e.tenants[name] = t
	e.order = append(e.order, name)
	if len(e.order) == 1 {
		e.credit = t.weight
	}
	return t
}

// pickLocked runs one deficit-round-robin step: serve the rotor's
// tenant while it has credit and dispatchable work, otherwise advance
// the rotor (refilling the next tenant's credit with its weight). With
// unit-cost queries DRR reduces to weighted round robin: a tenant gets
// up to `weight` dispatches per rotor visit. Returns nil when no tenant
// can dispatch (all queues empty, or every backlogged tenant is at its
// in-flight cap). Caller holds e.mu.
func (e *Engine) pickLocked() *Query {
	n := len(e.order)
	if n == 0 || e.queuedTotal == 0 {
		return nil
	}
	for hops := 0; hops <= n; hops++ {
		t := e.tenants[e.order[e.rrPos]]
		if e.credit > 0 && t.dispatchable() {
			e.credit--
			q := t.queue[0]
			t.queue[0] = nil
			t.queue = t.queue[1:]
			if len(t.queue) == 0 {
				t.queue = nil // release the drained backing array
			}
			t.inFlight++
			t.met.queued.Add(-1)
			t.met.inFlight.Add(1)
			e.queuedTotal--
			return q
		}
		e.rrPos = (e.rrPos + 1) % n
		e.credit = e.tenants[e.order[e.rrPos]].weight
	}
	return nil
}

// next blocks until a query is dispatchable or the engine has drained
// after Close. A nil return means "dispatcher should exit".
func (e *Engine) next() *Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if q := e.pickLocked(); q != nil {
			return q
		}
		if e.closed && e.queuedTotal == 0 {
			return nil
		}
		e.cond.Wait()
	}
}

// dispatch hands each dispatchable query a semaphore slot. The slot is
// acquired BEFORE a query is picked: a picked query is always
// immediately runnable, so each tenant queue's occupancy is exactly its
// admitted-but-not-running set.
func (e *Engine) dispatch() {
	defer close(e.dispTkn)
	for {
		e.sem <- struct{}{}
		q := e.next()
		if q == nil {
			<-e.sem
			return
		}
		em().queued.Add(-1)
		e.wg.Add(1)
		go e.run(q)
	}
}

func (e *Engine) run(q *Query) {
	defer e.wg.Done()
	met := em()
	met.inFlight.Add(1)

	q.Started = time.Now()
	q.QueueWait = q.Started.Sub(q.Submitted)
	met.queueWaitNs.Observe(q.QueueWait.Nanoseconds())

	// The deadline budget starts HERE — at execution, after the queue
	// wait — so scheduling delay under load can never silently consume
	// a query's execution time.
	ctx := q.ctx
	if e.cfg.DefaultDeadline > 0 {
		// A deadline already on the submit ctx stays if earlier;
		// WithTimeout never extends one.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.DefaultDeadline)
		defer cancel()
	}

	q.status.Store(int32(StatusRunning))
	span := obs.DefaultTracer().StartSpan("engine.query", map[string]string{
		"label": q.Label, "tenant": q.Tenant,
	})
	res, err := q.fn(ctx)
	span.End()

	// Stamp the pinned snapshot generation into results that carry one.
	if r, ok := res.(BFSResult); ok && err == nil {
		r.Generation = q.Generation
		res = r
	}

	q.Finished = time.Now()
	q.Result, q.Err = res, err

	// Store in the result cache only when the pinned snapshot is still
	// the committed state: if ingest committed or the placement epoch
	// moved while the query ran, the result may mix generations and is
	// discarded rather than cached.
	if err == nil && e.cache != nil && q.cacheKey != "" &&
		e.genFn() == q.Generation && e.epoch() == q.epoch {
		e.cache.Put(qcache.Key{
			Epoch: q.epoch, Generation: q.Generation,
			Analysis: q.Label, Params: q.cacheKey,
		}, res, resultCost(res))
	}

	met.execNs.Observe(q.Finished.Sub(q.Started).Nanoseconds())
	met.queryNs.Observe(q.Finished.Sub(q.Submitted).Nanoseconds())

	e.mu.Lock()
	t := e.tenantLocked(q.Tenant)
	t.inFlight--
	switch {
	case err == nil:
		e.stats.Completed++
		t.stats.Completed++
		met.completed.Inc()
		t.met.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.stats.Cancelled++
		t.stats.Cancelled++
		met.cancelled.Inc()
		t.met.cancelled.Inc()
	default:
		e.stats.Failed++
		t.stats.Failed++
		met.failed.Inc()
		t.met.failed.Inc()
	}
	e.mu.Unlock()

	t.met.inFlight.Add(-1)
	t.met.queueWaitNs.Observe(q.QueueWait.Nanoseconds())
	t.met.execNs.Observe(q.Finished.Sub(q.Started).Nanoseconds())
	t.met.queryNs.Observe(q.Finished.Sub(q.Submitted).Nanoseconds())
	met.inFlight.Add(-1)
	q.status.Store(int32(StatusDone))
	close(q.done)

	// Release the engine-wide slot, then wake the dispatcher: a tenant
	// blocked on its in-flight cap may be dispatchable now.
	<-e.sem
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// epoch reads the executor's placement epoch.
func (e *Engine) epoch() uint64 { return e.cfg.Executor.Epoch() }

// resultCost estimates a cached result's memory footprint for the
// cache's byte budget.
func resultCost(res any) int64 {
	const base = 256
	switch r := res.(type) {
	case BFSResult:
		return base + 8*int64(len(r.Path)) + 48*int64(len(r.LevelStats))
	case KHopResult:
		return base + 8*int64(len(r.PerLevel))
	case ComponentResult:
		return base
	}
	return base
}

// submit is the single admission path: cache probe first (a hit costs
// no quota), then per-tenant queue reservation under the lock.
func (e *Engine) submit(ctx context.Context, tenant, label, cacheKey string, fn func(ctx context.Context) (any, error)) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if tenant == "" {
		tenant = DefaultTenantName
	}
	if err := validTenant(tenant); err != nil {
		return nil, err
	}
	now := time.Now()
	epoch := e.epoch()
	gen := e.genFn()

	if e.cache != nil && cacheKey != "" {
		if res, ok := e.cache.Get(qcache.Key{
			Epoch: epoch, Generation: gen, Analysis: label, Params: cacheKey,
		}); ok {
			q := &Query{
				Label: label, Tenant: tenant, Generation: gen, CacheHit: true,
				done: make(chan struct{}), Result: res,
				Submitted: now, Started: now, Finished: now,
			}
			q.status.Store(int32(StatusDone))
			close(q.done)
			e.mu.Lock()
			e.nextID++
			q.ID = e.nextID
			e.stats.CacheHits++
			t := e.tenantLocked(tenant)
			t.stats.CacheHits++
			e.mu.Unlock()
			em().cacheHits.Inc()
			t.met.cacheHits.Inc()
			return q, nil
		}
	}

	q := &Query{
		Label: label, Tenant: tenant, Generation: gen,
		fn: fn, ctx: ctx, done: make(chan struct{}),
		cacheKey: cacheKey, epoch: epoch,
		Submitted: now,
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	t := e.tenantLocked(tenant)
	if len(t.queue) >= t.queueDepth {
		e.stats.Rejected++
		t.stats.Rejected++
		e.mu.Unlock()
		em().rejected.Inc()
		t.met.rejected.Inc()
		return nil, fmt.Errorf("%w (tenant %q, depth %d)", ErrRejected, tenant, t.queueDepth)
	}
	e.nextID++
	q.ID = e.nextID
	t.queue = append(t.queue, q)
	e.queuedTotal++
	e.stats.Admitted++
	t.stats.Admitted++
	e.cond.Broadcast()
	e.mu.Unlock()
	em().admitted.Inc()
	em().queued.Add(1)
	t.met.admitted.Inc()
	t.met.queued.Add(1)
	return q, nil
}

// SubmitFunc admits an arbitrary query function under the default
// tenant. The function receives a context that is cancelled by the
// engine's deadline policy or the caller's ctx; it must return promptly
// once that context is done. Arbitrary functions are never cached.
func (e *Engine) SubmitFunc(ctx context.Context, label string, fn func(ctx context.Context) (any, error)) (*Query, error) {
	return e.SubmitFuncAs(ctx, DefaultTenantName, label, fn)
}

// SubmitFuncAs is SubmitFunc under an explicit tenant.
func (e *Engine) SubmitFuncAs(ctx context.Context, tenant, label string, fn func(ctx context.Context) (any, error)) (*Query, error) {
	return e.submit(ctx, tenant, label, "", fn)
}

// Submit admits one registered analysis by name under the default
// tenant. The params map is analysis-specific (see Analysis.Run).
func (e *Engine) Submit(ctx context.Context, analysis string, params map[string]string) (*Query, error) {
	return e.SubmitAs(ctx, DefaultTenantName, analysis, params)
}

// SubmitAs is Submit under an explicit tenant. Results are cached under
// (epoch, generation, analysis, canonicalized params) when a cache is
// configured.
func (e *Engine) SubmitAs(ctx context.Context, tenant, analysis string, params map[string]string) (*Query, error) {
	a, ok := LookupAnalysis(analysis)
	if !ok {
		return nil, fmt.Errorf("query: unknown analysis %q (have %v)", analysis, Analyses())
	}
	return e.submit(ctx, tenant, analysis, qcache.CanonicalParams(params), func(ctx context.Context) (any, error) {
		return a.Run(ctx, e.cfg.Executor, params)
	})
}

// BFS admits one executor BFS run under the default tenant.
func (e *Engine) BFS(ctx context.Context, cfg BFSConfig) (*Query, error) {
	return e.BFSAs(ctx, DefaultTenantName, cfg)
}

// BFSAs admits one executor BFS run under an explicit tenant.
func (e *Engine) BFSAs(ctx context.Context, tenant string, cfg BFSConfig) (*Query, error) {
	key, _ := bfsCacheKey(cfg)
	return e.submit(ctx, tenant, "bfs", key, func(ctx context.Context) (any, error) {
		return e.cfg.Executor.BFSCtx(ctx, cfg)
	})
}

// KHop admits one executor k-hop run under the default tenant.
func (e *Engine) KHop(ctx context.Context, cfg KHopConfig) (*Query, error) {
	return e.KHopAs(ctx, DefaultTenantName, cfg)
}

// KHopAs admits one executor k-hop run under an explicit tenant.
func (e *Engine) KHopAs(ctx context.Context, tenant string, cfg KHopConfig) (*Query, error) {
	key, _ := khopCacheKey(cfg)
	return e.submit(ctx, tenant, "khop", key, func(ctx context.Context) (any, error) {
		return e.cfg.Executor.KHopCtx(ctx, cfg)
	})
}

// bfsCacheKey canonicalizes a BFS configuration into a cache key. A
// config with a caller-injected visited constructor is not cacheable:
// its result may depend on external state the key cannot name. The
// node roster is encoded (a failover retry against a reduced roster is
// a different query); the routing funcs (OwnerOf/ReplicasOf) are
// derived deterministically from the placement at a given epoch, which
// the key already carries, so they do not need to appear — callers
// injecting a custom directory that varies within one epoch should
// disable caching. Performance-only knobs (Workers, Prefetch,
// Threshold) are deliberately excluded: they cannot change the result,
// so excluding them lets differently-tuned submissions share entries.
func bfsCacheKey(cfg BFSConfig) (string, bool) {
	if cfg.NewVisited != nil {
		return "", false
	}
	return qcache.CanonicalParams(map[string]string{
		"source":    fmt.Sprint(cfg.Source),
		"dest":      fmt.Sprint(cfg.Dest),
		"pipelined": fmt.Sprint(cfg.Pipelined),
		"maxlevels": fmt.Sprint(cfg.MaxLevels),
		"ownership": fmt.Sprint(int(cfg.Ownership)),
		"filter":    fmt.Sprintf("%d/%d", cfg.Filter.Op, cfg.Filter.Ref),
		"path":      fmt.Sprint(cfg.ReturnPath),
		"partial":   fmt.Sprint(cfg.AllowPartial),
		"roster":    rosterKey(cfg.ActiveNodes),
	}), true
}

// khopCacheKey canonicalizes a k-hop configuration under the same
// rules.
func khopCacheKey(cfg KHopConfig) (string, bool) {
	return qcache.CanonicalParams(map[string]string{
		"source":    fmt.Sprint(cfg.Source),
		"k":         fmt.Sprint(cfg.K),
		"ownership": fmt.Sprint(int(cfg.Ownership)),
		"partial":   fmt.Sprint(cfg.AllowPartial),
		"roster":    rosterKey(cfg.ActiveNodes),
	}), true
}

// rosterKey encodes an ActiveNodes roster ("" = full membership).
func rosterKey(nodes []cluster.NodeID) string {
	if nodes == nil {
		return ""
	}
	var sb strings.Builder
	for i, n := range nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", n)
	}
	return sb.String()
}

// Stats returns a snapshot of the admission counters, including the
// per-tenant breakdown.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Tenants = make(map[string]TenantStats, len(e.tenants))
	for name, t := range e.tenants {
		st.Tenants[name] = t.stats
	}
	return st
}

// Cache exposes the engine's result cache (nil when caching is
// disabled) — core.Engine registers it for invalidation hooks.
func (e *Engine) Cache() *qcache.Cache { return e.cache }

// InvalidateCache reclaims cache entries whose (epoch, generation) no
// longer match the committed state — call after an ingest commit or a
// placement epoch swap. Matching stale entries is already impossible
// (the key changed); this frees their memory. Returns entries dropped.
func (e *Engine) InvalidateCache() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.PurgeStale(e.epoch(), e.genFn())
}

// Close stops admission and drains: queued queries still run, in-flight
// queries finish (or hit their deadlines), and Close returns once the
// last one is done. The fabric and databases stay open. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.dispTkn
		e.wg.Wait()
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.dispTkn
	e.wg.Wait()
	return nil
}
