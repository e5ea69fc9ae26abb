// Package core assembles the MSSG framework (paper Fig 3.1): a cluster
// fabric, one GraphDB Service instance per back-end node, the Ingestion
// Service filters, and the Query Service — all behind one Engine type.
//
// The engine maps the paper's deployment onto the simulated cluster: the
// fabric has one node per back-end storage node, and the configured number
// of front-end ingest filter copies are placed round-robin across the
// first nodes (on the real cluster front-ends were distinct machines; the
// message pattern between the services is identical either way, which is
// what the experiments measure).
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/datacutter"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// Engine is a running MSSG instance.
type Engine struct {
	cfg    Config
	fabric cluster.Fabric
	dbs    []graphdb.Graph
	// closed is set by Close, which signal handlers call while the main
	// goroutine queries or ingests.
	closed atomic.Bool

	// lastIngest holds the most recent completed Ingest run's statistics,
	// for shutdown reporting from signal handlers.
	lastIngest atomic.Pointer[ingest.Stats]

	// qmu guards qengines: the resident query engines whose result
	// caches this engine invalidates on ingest commit and epoch swap.
	qmu      sync.Mutex
	qengines []*query.Engine
}

// New builds the fabric and opens one GraphDB instance per back-end node.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.FrontEnds < 1 {
		cfg.FrontEnds = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = "grdb"
	}
	if cfg.Placement != nil {
		cfg.Ingest.Policy = cfg.Placement.Policy
	}

	var fabric cluster.Fabric
	switch cfg.Fabric {
	case InProc:
		fabric = cluster.NewInProc(cfg.Backends, cfg.MailboxBuffer)
	case TCP:
		f, err := cluster.NewTCP(cfg.Backends, cfg.MailboxBuffer)
		if err != nil {
			return nil, err
		}
		fabric = f
	}
	// Layering order matters: faults perturb the raw transport, and the
	// reliable layer (when enabled) sits above them, masking what it can
	// and converting what it cannot into ErrNodeDown/ErrTimeout.
	if cfg.Fault != nil {
		fabric = cluster.NewFaulty(fabric, *cfg.Fault)
	}
	if cfg.Reliable {
		fabric = cluster.NewReliable(fabric, cfg.ReliableOptions)
	}

	e := &Engine{cfg: cfg, fabric: fabric}
	for i := 0; i < cfg.Backends; i++ {
		opts := cfg.DBOptions
		if cfg.Dir != "" {
			opts.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("node%03d", i))
			if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
				e.Close()
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		db, err := graphdb.Open(cfg.Backend, opts)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("core: opening %s on node %d: %w", cfg.Backend, i, err)
		}
		e.dbs = append(e.dbs, db)
	}
	return e, nil
}

// Backends returns the number of back-end nodes.
func (e *Engine) Backends() int { return e.cfg.Backends }

// Fabric exposes the cluster fabric (for custom analyses).
func (e *Engine) Fabric() cluster.Fabric { return e.fabric }

// DB returns back-end node i's GraphDB instance.
func (e *Engine) DB(i int) graphdb.Graph { return e.dbs[i] }

// Databases returns all back-end instances, indexed by node.
func (e *Engine) Databases() []graphdb.Graph { return e.dbs }

// Ingest streams edges into the back-ends through the Ingestion Service
// filter graph. makeReader returns front-end copy i's partition of the
// input (copies run concurrently). It returns ingest statistics.
func (e *Engine) Ingest(makeReader func(copy int) (graph.EdgeReader, error)) (*ingest.Stats, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("core: engine closed")
	}
	if err := e.requireCaps("ingest", false); err != nil {
		return nil, err
	}
	icfg := e.cfg.Ingest
	icfg.FrontEnds = e.cfg.FrontEnds
	icfg.Backends = e.cfg.Backends
	if e.cfg.Placement != nil {
		// Pin one placement snapshot for the whole run so every filter
		// copy routes identically, and take the replication factor from
		// it — a replicated placement must engage the k-way store path,
		// or query-time replica fallback would read empty shards.
		_, pol := e.cfg.Placement.Snapshot()
		icfg.Policy = func() ingest.Policy { return pol }
		if rp, ok := pol.(ingest.ReplicaPolicy); ok {
			icfg.ReplicationFactor = rp.ReplicationFactor()
		}
	}
	// Durable databases get durable ingest: back-ends checkpoint their
	// window dedup-set so a crashed-and-restarted run can re-ship the
	// stream without double-storing.
	if e.durable() {
		icfg.Durable = true
	}

	stats := &ingest.Stats{}
	g := datacutter.NewGraph()
	err := ingest.BuildGraph(g, icfg, stats,
		makeReader,
		func(copy int) graphdb.Graph { return e.dbs[copy] },
		datacutter.PlaceCopies(icfg.FrontEnds),
		datacutter.PlaceOnePerNode(),
	)
	if err != nil {
		return nil, err
	}
	rt := datacutter.NewRuntime(e.fabric)
	ropts := datacutter.RunOptions{
		Deadline: e.cfg.IngestDeadline,
		FailFast: e.cfg.IngestDeadline > 0,
	}
	runStart := time.Now()
	runErr := rt.RunWith(g, ropts)
	obs.Default().Histogram("ingest.run_ns").Observe(time.Since(runStart).Nanoseconds())
	e.lastIngest.Store(stats)
	// The commit advanced every back-end's generation stamp, so cached
	// query results keyed by the old generation can no longer match;
	// reclaim their memory now. Structural correctness does not depend
	// on this call (see query/qcache package doc).
	e.invalidateQueryCaches()
	if runErr != nil {
		return stats, runErr
	}
	return stats, nil
}

// durable reports whether the databases run under full durability, which
// makes ingest and migration checkpoint their window dedup-set.
func (e *Engine) durable() bool { return e.cfg.DBOptions.Durability >= graphdb.DurabilityFull }

// requireCaps refuses op before its first side effect when the backend
// lacks graphdb.Checkpointer for a durable run or, with scan, the
// graphdb.VertexScanner a migration walks sources with. Every node runs
// the same backend, so node 0 answers for all.
func (e *Engine) requireCaps(op string, scan bool) error {
	if _, ok := e.dbs[0].(graphdb.VertexScanner); scan && !ok {
		return fmt.Errorf("core: %s needs a backend that enumerates its vertices (graphdb.VertexScanner), not %s", op, e.cfg.Backend)
	}
	if _, ok := e.dbs[0].(graphdb.Checkpointer); e.durable() && !ok {
		return fmt.Errorf("core: durable %s needs a backend that checkpoints (graphdb.Checkpointer), not %s", op, e.cfg.Backend)
	}
	return nil
}

// invalidateQueryCaches purges stale result-cache entries in every
// resident query engine built by NewQueryEngine.
func (e *Engine) invalidateQueryCaches() {
	e.qmu.Lock()
	qes := append([]*query.Engine(nil), e.qengines...)
	e.qmu.Unlock()
	for _, qe := range qes {
		qe.InvalidateCache()
	}
}

// LastIngestStats returns the statistics of the most recent Ingest run
// (even a failed one), or nil if none has run. Safe to call from a signal
// handler while a run is in flight: it sees the previous completed run.
func (e *Engine) LastIngestStats() *ingest.Stats {
	return e.lastIngest.Load()
}

// IngestEdges ingests a materialized edge list, splitting it evenly
// across the configured front-ends.
func (e *Engine) IngestEdges(edges []graph.Edge) (*ingest.Stats, error) {
	f := e.cfg.FrontEnds
	return e.Ingest(func(copy int) (graph.EdgeReader, error) {
		lo := len(edges) * copy / f
		hi := len(edges) * (copy + 1) / f
		return graph.NewSliceReader(edges[lo:hi]), nil
	})
}

// IngestGenerated streams a synthetic graph straight from its generator
// (single front-end; generators are sequential streams).
func (e *Engine) IngestGenerated(cfg gen.Config) (*ingest.Stats, error) {
	gen, err := gen.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	save := e.cfg.FrontEnds
	e.cfg.FrontEnds = 1
	defer func() { e.cfg.FrontEnds = save }()
	return e.Ingest(func(copy int) (graph.EdgeReader, error) { return gen, nil })
}

// BFS runs a parallel out-of-core BFS across the back-ends. The fringe
// routing follows the ingestion-time declustering (paper §4.2): a
// directory policy supplies its vertex→node mapping, a policy without a
// global mapping forces broadcast fringe exchange.
func (e *Engine) BFS(cfg query.BFSConfig) (query.BFSResult, error) {
	return e.BFSCtx(context.Background(), cfg)
}

// BFSCtx is BFS with cancellation: cancelling ctx aborts the search on
// every node with ctx.Err(). On a replicated deployment the query runs
// through the failover loop: attempts exclude back-ends the health view
// or earlier errors convicted, fringe routing falls through to a dead
// primary's replicas, and the result carries FailoverStats.
func (e *Engine) BFSCtx(ctx context.Context, cfg query.BFSConfig) (query.BFSResult, error) {
	if e.closed.Load() {
		return query.BFSResult{}, fmt.Errorf("core: engine closed")
	}
	e.route(&cfg.Routing)
	if cfg.ReplicasOf != nil {
		return query.FailoverBFS(ctx, e.fabric, e.dbs, cfg, e.cfg.Failover)
	}
	return query.ParallelBFS(ctx, e.fabric, e.dbs, cfg)
}

// KHop counts the vertices within cfg.K hops of cfg.Source, with the
// same policy-based routing and (on replicated deployments) the same
// failover behaviour as BFS.
func (e *Engine) KHop(cfg query.KHopConfig) (query.KHopResult, error) {
	return e.KHopCtx(context.Background(), cfg)
}

// KHopCtx is KHop with cancellation.
func (e *Engine) KHopCtx(ctx context.Context, cfg query.KHopConfig) (query.KHopResult, error) {
	if e.closed.Load() {
		return query.KHopResult{}, fmt.Errorf("core: engine closed")
	}
	e.route(&cfg.Routing)
	if cfg.ReplicasOf != nil {
		return query.FailoverKHop(ctx, e.fabric, e.dbs, cfg, e.cfg.Failover)
	}
	return query.ParallelKHop(ctx, e.fabric, e.dbs, cfg)
}

// route applies the placement policy to one query's routing: the
// ingestion policy's vertex→node mapping — a directory policy supplies
// OwnerOf, a policy without a global mapping forces broadcast — and, for
// replicating policies, its replica directory. On an elastic engine the directory,
// the replica lists, and the member roster all come from one placement
// snapshot, so a query admitted mid-migration is internally consistent
// and a commit flips routing for the next query in one step.
func (e *Engine) route(r *query.Routing) {
	if p := e.queryPolicy(&r.ActiveNodes); p != nil {
		dp, isDirectory := p.(ingest.DirectoryPolicy)
		switch {
		case r.OwnerOf != nil:
			// Caller-provided directory wins.
		case isDirectory:
			r.OwnerOf = dp.OwnerOf
		case !p.GloballyMapped():
			r.Ownership = query.BroadcastFringe
		}
		if r.ReplicasOf == nil {
			r.ReplicasOf = replicasOf(p)
		}
	}
	if !r.AllowPartial {
		r.AllowPartial = e.cfg.AllowPartial
	}
}

// queryPolicy resolves one query's routing policy. With a placement
// holder it also restricts the roster (*active) to the committed
// members — taken from the same snapshot as the policy — so queries
// never span nodes that joined but have not committed, or nodes already
// drained. A nil *active (full membership) keeps the roster fast path.
func (e *Engine) queryPolicy(active *[]cluster.NodeID) ingest.Policy {
	if e.cfg.Placement != nil {
		pl, pol := e.cfg.Placement.Snapshot()
		if *active == nil && pl.Nodes != nil {
			*active = pl.Members()
		}
		return pol
	}
	if pf := e.cfg.Ingest.Policy; pf != nil {
		return pf()
	}
	return nil
}

// replicasOf returns p's replica directory when p actually replicates
// (factor > 1), nil otherwise — a factor-1 policy has nothing to fail
// over to, and nil keeps the query layer on its allocation-free
// owner-only fast path.
func replicasOf(p ingest.Policy) func(graph.VertexID) []cluster.NodeID {
	rp, ok := p.(ingest.ReplicaPolicy)
	if !ok || rp.ReplicationFactor() < 2 {
		return nil
	}
	return rp.Replicas
}

// Epoch is the committed placement epoch, 0 without a placement holder.
func (e *Engine) Epoch() uint64 {
	if e.cfg.Placement == nil {
		return 0
	}
	return e.cfg.Placement.Epoch()
}

// NewQueryEngine builds a resident concurrent query scheduler over this
// engine (see query.Engine). Queries submitted through it run as
// concurrent readers through BFSCtx/KHopCtx, so they take the same
// placement routing and failover as one-shot queries; the caller closes
// the returned engine before closing this one.
//
// On an elastic engine (Placement set) the scheduler's cache keys and
// snapshot pins carry the committed placement epoch, and a caching
// scheduler is registered for invalidation on every ingest commit and
// epoch swap — so a cached result can never outlive the graph state it
// was computed against.
func (e *Engine) NewQueryEngine(qcfg query.EngineConfig) (*query.Engine, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("core: engine closed")
	}
	if qcfg.Executor == nil {
		qcfg.Executor = e
	}
	qe, err := query.NewEngine(e.fabric, e.dbs, qcfg)
	if err != nil {
		return nil, err
	}
	if qe.Cache() != nil {
		e.qmu.Lock()
		e.qengines = append(e.qengines, qe)
		e.qmu.Unlock()
		if e.cfg.Placement != nil {
			e.cfg.Placement.AddSwapHook(func(uint64) { qe.InvalidateCache() })
		}
	}
	return qe, nil
}

// SubmitBFSAs admits one BFS run into a resident query engine built by
// NewQueryEngine, under tenant (query.DefaultTenantName for the default
// tenant); the run takes BFSCtx's routing and failover.
func (e *Engine) SubmitBFSAs(ctx context.Context, qe *query.Engine, tenant string, cfg query.BFSConfig) (*query.Query, error) {
	return qe.BFSAs(ctx, tenant, cfg)
}

// RunAnalysis invokes a registered Query Service analysis by name.
func (e *Engine) RunAnalysis(name string, params map[string]string) (any, error) {
	return e.RunAnalysisCtx(context.Background(), name, params)
}

// RunAnalysisCtx is RunAnalysis with cancellation.
func (e *Engine) RunAnalysisCtx(ctx context.Context, name string, params map[string]string) (any, error) {
	a, ok := query.LookupAnalysis(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown analysis %q (registered: %v)", name, query.Analyses())
	}
	return a.Run(ctx, e, params)
}

// ResetMetadata clears per-vertex metadata on every back-end (between
// queries).
func (e *Engine) ResetMetadata() {
	for _, db := range e.dbs {
		graphdb.ResetMetadata(db)
	}
}

// Close shuts down the databases and the fabric.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, db := range e.dbs {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := e.fabric.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
