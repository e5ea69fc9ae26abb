package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// The traversal kernel: the one parallel out-of-core search of paper
// §4.2. An analysis that walks the graph level by level is a front-end:
// it fills in a traversal, gives runTraversal a per-node loop over
// kernel.step, and reads the outcome off the kernel. One step is sort →
// expand → exchange → settle; seed runs before the first.
//
// The sort puts the fringe in ascending vertex order, which is block
// order: grDB lays level 0 and each window's sub-blocks out by source
// vertex, so vertices that share a block are read back to back instead
// of being scattered across the level and evicted between their reads.
// Every read path of expand gets the sorted fringe.
//
// The paper's two exchange disciplines are one value, kernel.chunk: 0
// ships each peer's share at the end of the level (Algorithm 1), n > 0
// ships a bucket the moment it holds n vertices and drains arrivals
// between expansions (Algorithm 2).

// traversal is what an analysis asks of the kernel. BFSConfig is the
// kernel's knob set (KHopConfig is a subset of it); the other fields are
// fixed by the front-end, not its caller.
type traversal struct {
	BFSConfig
	name    string        // run-span prefix: "bfs", "khop"
	hasDest bool          // end the search at the level that scans Dest
	met     *queryMetrics // per-level observations; nil = not a BFS run
}

// expandChunk is how many fringe vertices a per-vertex expansion claims
// from the shared cursor at a time: large enough to amortize the atomic
// and the ctx check, small enough that skewed adjacency sizes still
// balance across workers.
const expandChunk = 16

// expandWorkers decides how many goroutines may expand one level's
// fringe against db. Parallel expansion is skipped (serial fallback)
// when the backend answers whole fringes in one batch pass (StreamDB: a
// per-vertex split would scan the log once per vertex), and for
// ReturnPath queries (the parent map belongs to the node goroutine).
func (c *BFSConfig) expandWorkers(db graphdb.Graph) int {
	n := c.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n <= 1 || c.ReturnPath {
		return 1
	}
	if _, batch := db.(graphdb.BatchGraph); batch {
		return 1
	}
	return n
}

// tally is the work one lane, level or node has done.
type tally struct{ edges, visited, sent, dropped, replicaReads int64 }

func (t *tally) add(o tally) {
	t.edges += o.edges
	t.visited += o.visited
	t.sent += o.sent
	t.dropped += o.dropped
	t.replicaReads += o.replicaReads
}

// lane is one goroutine's share of a level, so that expansion workers
// contend on nothing but the visited set. The node goroutine owns
// kernel.main; a worker pool gives each worker a lane and merges them
// into main after the join.
type lane struct {
	k *kernel
	tally
	found   bool
	next    []graph.VertexID   // discoveries this node expands next level
	buckets [][]graph.VertexID // per-peer discoveries not yet shipped
	pairs   [][]graph.Edge     // the same as (vertex, parent), for ReturnPath
}

// kernel is one node's state for one traversal.
type kernel struct {
	ctx     context.Context
	tr      *traversal
	ep      cluster.Endpoint
	self    cluster.NodeID
	rst     *roster
	rt      *vertexRouter
	qc      queryChannels
	coll    *cluster.Collective
	db      graphdb.Graph
	visited Visited
	release func() // returns visited to its pool, or closes it
	workers int
	chunk   int

	parents map[graph.VertexID]graph.VertexID // BFS predecessors, for ReturnPath
	span    *obs.Span
	adj     *graph.AdjList // the node goroutine's adjacency buffer, held for the whole query

	level    int32            // level being expanded (the paper's levcnt)
	fringe   []graph.VertexID // expanded at level; after a step, the next fringe
	main     lane
	absorbed []graph.VertexID // new vertices received from peers this level
	doneSeen int              // peers whose end-of-level marker has arrived

	levels int32 // the last level whose barrier was passed
	found  bool  // some node scanned Dest at that level
	total  tally
	stats  []LevelStat
}

func newKernel(ctx context.Context, ep cluster.Endpoint, rst *roster, qc queryChannels, db graphdb.Graph, tr *traversal) (*kernel, error) {
	k := &kernel{ctx: ctx, tr: tr, self: ep.ID(), rst: rst, qc: qc, db: db,
		workers: tr.expandWorkers(db), chunk: tr.chunk(), adj: getAdjList()}
	var err error
	if k.visited, k.release, err = newVisited(k.self, tr.NewVisited, k.workers); err != nil {
		return nil, err
	}
	// On a partial roster the endpoint is filtered: down-declarations for
	// already-excluded peers no longer abort receives.
	k.ep = wrapActive(ep, rst)
	k.coll = cluster.NewCollective(k.ep, qc.collUp, qc.collDn).WithContext(ctx)
	if rst.partial() {
		k.coll = k.coll.WithParticipants(rst.nodes)
	}
	owner := tr.OwnerOf
	if owner == nil {
		p := ep.Nodes()
		owner = func(v graph.VertexID) cluster.NodeID { return cluster.Owner(int64(v), p) }
	}
	k.rt = &vertexRouter{rst: rst, owner: owner, replicas: tr.ReplicasOf}
	if tr.ReturnPath {
		k.parents = make(map[graph.VertexID]graph.VertexID)
	}
	k.main = k.newLane()
	return k, nil
}

func (k *kernel) newLane() lane {
	l := lane{k: k, buckets: make([][]graph.VertexID, k.ep.Nodes())}
	if k.parents != nil {
		l.pairs = make([][]graph.Edge, k.ep.Nodes())
	}
	return l
}

func (k *kernel) close() {
	k.span.End()
	putAdjList(k.adj)
	k.release()
}

// newVisited builds the per-node visited structure and the release that
// returns it when the query finishes. The default is a pooled MemVisited,
// safe for concurrent markers as it is; a caller-provided structure (e.g.
// ExtVisited) is wrapped in a mutex under parallel expansion and Closed
// on release.
func newVisited(node cluster.NodeID, mk func(cluster.NodeID) (Visited, error), workers int) (Visited, func(), error) {
	if mk == nil {
		v := memVisitedPool.Get().(*MemVisited)
		return v, func() {
			v.Reset()
			memVisitedPool.Put(v)
		}, nil
	}
	v, err := mk(node)
	if err != nil {
		return nil, nil, err
	}
	closer := v
	if workers > 1 {
		v = ensureConcurrentVisited(v)
	}
	return v, func() { closer.Close() }, nil
}

// seed puts the source in the level-1 fringe of its first live replica
// (the owner, on a full roster). Under broadcast ownership every roster
// node seeds (local adjacency of non-local vertices is empty, step 5 of
// Algorithm 1). A source with no live replica is dropped —
// deterministically on the roster's first node, so the level-1 barrier
// sees exactly one drop.
func (k *kernel) seed() error {
	if k.tr.Ownership == KnownMapping {
		dest, replica, ok := k.rt.route(k.tr.Source)
		if !ok && k.self == k.rst.first() {
			k.main.dropped++
		}
		if !ok || dest != k.self {
			return nil
		}
		if replica {
			k.total.replicaReads++
		}
	}
	if _, err := k.visited.MarkIfNew(k.tr.Source, 0); err != nil {
		return err
	}
	k.fringe = append(k.fringe, k.tr.Source)
	return nil
}

// scan marks ids — the adjacency of parent — at the current level and
// discovers the new ones.
func (l *lane) scan(ids []graph.VertexID, parent graph.VertexID) error {
	visited, level := l.k.visited, l.k.level
	dest, hasDest := l.k.tr.Dest, l.k.tr.hasDest
	l.edges += int64(len(ids))
	for _, u := range ids {
		if hasDest && u == dest {
			l.found = true
		}
		isNew, err := visited.MarkIfNew(u, level)
		if err != nil {
			return err
		}
		if isNew {
			if err := l.discover(u, parent); err != nil {
				return err
			}
		}
	}
	return nil
}

// discover routes one newly marked vertex: keep, bucket for the peer that
// serves it (every peer, under broadcast ownership), or drop when no live
// replica does — its subtree is then out of reach, and settle turns a
// non-zero drop count into ErrNoLiveReplica unless AllowPartial.
func (l *lane) discover(u, parent graph.VertexID) error {
	k := l.k
	if k.tr.Ownership == BroadcastFringe {
		l.visited++
		l.keep(u, parent)
		for _, q := range k.rst.nodes {
			if q == k.self {
				continue
			}
			if err := l.bucket(q, u, parent); err != nil {
				return err
			}
		}
		return nil
	}
	dest, replica, ok := k.rt.route(u)
	if !ok {
		l.dropped++
		return nil
	}
	l.visited++
	if replica {
		l.replicaReads++
	}
	if dest == k.self {
		l.keep(u, parent)
		return nil
	}
	return l.bucket(dest, u, parent)
}

func (l *lane) keep(u, parent graph.VertexID) {
	l.next = append(l.next, u)
	if l.k.parents != nil {
		l.k.parents[u] = parent
	}
}

// bucket queues u for peer q; a full bucket ships at once (Algorithm 2).
func (l *lane) bucket(q cluster.NodeID, u, parent graph.VertexID) error {
	l.sent++
	if l.pairs != nil {
		l.pairs[q] = append(l.pairs[q], graph.Edge{Src: u, Dst: parent})
		return nil
	}
	l.buckets[q] = append(l.buckets[q], u)
	if l.k.chunk > 0 && len(l.buckets[q]) >= l.k.chunk {
		return l.flush(q)
	}
	return nil
}

// flush ships whatever is bucketed for peer q. Endpoints are safe for
// concurrent senders, so workers flush their own lanes.
func (l *lane) flush(q cluster.NodeID) error {
	var frame []byte
	switch {
	case len(l.buckets[q]) > 0:
		frame = encodeChunk(l.buckets[q])
		l.buckets[q] = l.buckets[q][:0]
	case l.pairs != nil && len(l.pairs[q]) > 0:
		frame = encodeChunkPairs(l.pairs[q])
		l.pairs[q] = l.pairs[q][:0]
	default:
		return nil
	}
	return l.k.ep.Send(q, l.k.qc.fringe, frame)
}

// expand scans the adjacency of the whole fringe, in the ascending vertex
// order step sorted it into. The plain serial case is one batch call
// (StreamDB requires it; everyone else benefits from it too). ReturnPath,
// the chunked discipline and a worker pool read vertex by vertex instead:
// a batch loses which fringe vertex produced each neighbour, cannot
// interleave sends, and cannot be split.
func (k *kernel) expand() error {
	op, ref := k.tr.Filter.metaOp()
	var (
		cursor atomic.Int64
		stop   atomic.Bool
	)
	if k.workers == 1 {
		if k.chunk > 0 || k.parents != nil {
			return k.expandRuns(&k.main, k.adj, op, ref, &cursor, &stop)
		}
		// On a one-node fabric no receive ever blocks, so expansion is the
		// only place a lone node observes cancellation.
		if err := k.ctx.Err(); err != nil {
			return err
		}
		k.adj.Reset()
		if err := graphdb.AdjacencyBatch(k.db, k.fringe, k.adj, ref, op); err != nil {
			return err
		}
		return k.main.scan(k.adj.IDs(), 0)
	}
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		if err != nil {
			once.Do(func() { firstErr = err; stop.Store(true) })
		}
	}
	lanes := make([]lane, k.workers)
	for w := range lanes {
		l := &lanes[w]
		*l = k.newLane()
		wg.Add(1)
		go func() {
			defer wg.Done()
			adj := getAdjList()
			defer putAdjList(adj)
			fail(k.expandRuns(l, adj, op, ref, &cursor, &stop))
		}()
	}
	if k.chunk > 0 {
		// Workers ship full chunks themselves while this goroutine absorbs
		// arrivals, blocking until one comes or the pool is done. The sends
		// assume unbounded mailboxes (core.Config.Validate refuses a
		// bounded one): the exchange still sends before it receives.
		pool, poolDone := context.WithCancel(k.ctx)
		go func() { wg.Wait(); poolDone() }()
		for {
			msg, err := k.ep.RecvCtx(pool, k.qc.fringe)
			if err == nil {
				err = k.absorb(msg.Payload)
			} else if pool.Err() != nil && k.ctx.Err() == nil {
				break
			}
			if err != nil {
				fail(err)
				break
			}
		}
	}
	wg.Wait()
	// Levels are sets, so the scheduling-dependent order inside next and
	// the buckets changes no result field; step sorts the next fringe
	// before it is read.
	for w := range lanes {
		l := &lanes[w]
		k.main.tally.add(l.tally)
		k.main.found = k.main.found || l.found
		k.main.next = append(k.main.next, l.next...)
		for q := range l.buckets {
			k.main.buckets[q] = append(k.main.buckets[q], l.buckets[q]...)
		}
	}
	return firstErr
}

// expandRuns is the per-vertex expansion loop (Algorithm 2 lines 9-22),
// claiming runs of the fringe until it is exhausted or a sibling worker
// has failed. Inline on the node goroutine under the chunked discipline
// it also absorbs arrivals after every vertex, overlapping communication
// with the out-of-core adjacency reads.
func (k *kernel) expandRuns(l *lane, adj *graph.AdjList, op graphdb.MetaOp, ref int32, cursor *atomic.Int64, stop *atomic.Bool) error {
	overlap := l == &k.main && k.chunk > 0
	for !stop.Load() {
		// One ctx check per claimed run: at most expandChunk adjacency
		// reads of cancellation latency, and off the per-vertex hot path.
		if err := k.ctx.Err(); err != nil {
			return err
		}
		start := cursor.Add(expandChunk) - expandChunk
		if start >= int64(len(k.fringe)) {
			break
		}
		for _, v := range k.fringe[start:min(start+expandChunk, int64(len(k.fringe)))] {
			adj.Reset()
			if err := k.db.AdjacencyUsingMetadata(v, adj, ref, op); err != nil {
				return err
			}
			if err := l.scan(adj.IDs(), v); err != nil {
				return err
			}
			if overlap {
				if err := k.poll(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// poll absorbs whatever has already arrived, without blocking.
func (k *kernel) poll() error {
	for {
		msg, ok, err := k.ep.TryRecv(k.qc.fringe)
		if err != nil || !ok {
			return err
		}
		if err := k.absorb(msg.Payload); err != nil {
			return err
		}
	}
}

// absorb handles one fringe frame; only the node goroutine calls it.
func (k *kernel) absorb(p []byte) error {
	if len(p) == 0 {
		return fmt.Errorf("query: empty fringe frame")
	}
	switch p[0] {
	case fkDone:
		k.doneSeen++
	case fkChunk:
		ids, err := decodeChunk(p)
		if err != nil {
			return err
		}
		for _, u := range ids {
			if err := k.take(u, 0); err != nil {
				return err
			}
		}
	case fkChunkP:
		pairs, err := decodeChunkPairs(p)
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			if err := k.take(pr.Src, pr.Dst); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("query: unknown fringe frame kind %d", p[0])
	}
	return nil
}

// take is the receive-side dedup (Algorithm 2 lines 24-27): a vertex
// already seen here is not re-expanded.
func (k *kernel) take(u, parent graph.VertexID) error {
	isNew, err := k.visited.MarkIfNew(u, k.level)
	if err != nil || !isNew {
		return err
	}
	k.main.visited++
	if k.parents != nil {
		k.parents[u] = parent
	}
	k.absorbed = append(k.absorbed, u)
	return nil
}

// exchange flushes every roster peer's bucket (its whole share under
// Algorithm 1, the leftovers under Algorithm 2) and a done marker, then
// absorbs until every peer's marker is in — FIFO per sender guarantees a
// peer's chunks precede it. After it the next fringe is final.
func (k *kernel) exchange() error {
	local := k.main.next
	for _, q := range k.rst.nodes {
		if q == k.self {
			continue
		}
		if err := k.main.flush(q); err != nil {
			return err
		}
		if err := k.ep.Send(q, k.qc.fringe, []byte{fkDone}); err != nil {
			return err
		}
	}
	for k.doneSeen < k.rst.size()-1 {
		msg, err := k.ep.RecvCtx(k.ctx, k.qc.fringe)
		if err != nil {
			return err
		}
		if err := k.absorb(msg.Payload); err != nil {
			return err
		}
	}
	k.doneSeen = 0
	k.fringe = append(local, k.absorbed...)
	k.absorbed = k.absorbed[:0]
	return nil
}

// settle is the level barrier: one vector reduction of {found, next
// fringe size, drops} lets every node decide the paper's termination
// conditions at the same point. A node that hit a replica-less shard
// never returns mid-level — peers would be left waiting at the exchange —
// so drops are only acted on here, by every node at once.
func (k *kernel) settle() (bool, error) {
	v := []int64{0, int64(len(k.fringe)), k.main.dropped}
	if k.main.found {
		v[0] = 1
	}
	if err := k.coll.AllReduceSum(v); err != nil {
		return false, err
	}
	k.levels = k.level
	if k.tr.hasDest && v[0] > 0 {
		// Found at level L is exact even with drops: a dropped vertex
		// could only have yielded paths of length >= L+1.
		k.found = true
		return false, nil
	}
	if v[2] > 0 && !k.tr.AllowPartial {
		return false, fmt.Errorf("query: level %d dropped %d fringe vertices: %w",
			k.level, v[2], ErrNoLiveReplica)
	}
	return v[1] > 0, nil
}

// step runs one level and reports whether the traversal continues. After
// it, fringe holds the vertices this node first reached at that level
// and found says whether the destination was scanned.
func (k *kernel) step() (bool, error) {
	met := k.tr.met
	if k.level == 0 {
		name := k.tr.name + ".levelsync"
		if k.chunk > 0 {
			name = k.tr.name + ".pipelined"
		}
		k.span = obs.DefaultTracer().StartSpan(name, map[string]string{"node": strconv.Itoa(int(k.self))})
		if met != nil {
			met.runs.Inc()
		}
		if err := k.seed(); err != nil {
			return false, err
		}
	}
	k.level++
	levelStart := time.Now()
	stat := LevelStat{Level: k.level, Fringe: int64(len(k.fringe))}
	lvlSpan := k.span.Child("bfs.level", map[string]string{
		"level":  strconv.Itoa(int(k.level)),
		"fringe": strconv.FormatInt(stat.Fringe, 10),
	})
	slices.Sort(k.fringe)
	if err := k.expand(); err != nil {
		return false, err
	}
	// Under the chunked discipline expansion overlapped its sends: its
	// time covers the whole compute+ship phase, the exchange histogram
	// only the end-of-level flush and drain.
	stat.ExpandNs = time.Since(levelStart).Nanoseconds()
	exchangeStart := time.Now()
	if err := k.exchange(); err != nil {
		return false, err
	}
	if met != nil {
		met.fringe.Observe(stat.Fringe)
		met.expand.Observe(stat.ExpandNs)
		met.exchange.ObserveSince(exchangeStart)
	}
	lvlSpan.End()
	stat.TotalNs = time.Since(levelStart).Nanoseconds()
	stat.ReplicaReads, stat.Dropped = k.main.replicaReads, k.main.dropped
	k.stats = append(k.stats, stat)
	k.total.add(k.main.tally)
	more, err := k.settle()
	// Flushed buckets keep their capacity; counters and next start afresh
	// (next is never reused: it became the fringe).
	k.main = lane{k: k, buckets: k.main.buckets, pairs: k.main.pairs}
	return more, err
}

// runTraversal is the scaffold every front-end runs under: it leases the
// query its own channel namespace (so traversals share one fabric), runs
// node with a fresh kernel on every roster member, and combines their
// work into the counter fields of a BFSResult — sums over the roster,
// level latencies maxed (the barrier makes the slowest node the level's
// wall-clock), Levels the deepest completed. A failure caused by a dead
// or unresponsive peer is wrapped in ErrPartialCoverage: the search did
// not deadlock, but it did not see the whole graph either. The counters
// are returned even then — the failover loop reads Levels off them.
func runTraversal(ctx context.Context, f cluster.Fabric, dbs []graphdb.Graph, tr *traversal, node func(k *kernel) error) (BFSResult, error) {
	tot := BFSResult{PathLength: -1, Coverage: 1}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(dbs) != f.Nodes() {
		return tot, fmt.Errorf("query: %d databases for %d nodes", len(dbs), f.Nodes())
	}
	rst, err := newRoster(f.Nodes(), tr.ActiveNodes)
	if err != nil {
		return tot, err
	}
	qc, err := leaseChannels()
	if err != nil {
		return tot, err
	}
	// An aborted query can leave undelivered chunks queued; drain them
	// before the namespace goes back in the pool so they cannot leak into
	// a future query that re-leases this block.
	defer qc.ns.DrainAndRelease(f)
	kernels := make([]*kernel, f.Nodes())
	err = cluster.RunOn(f, rst.runNodes(), func(ep cluster.Endpoint) error {
		k, err := newKernel(ctx, ep, rst, qc, dbs[ep.ID()], tr)
		if err != nil {
			return err
		}
		defer k.close()
		kernels[k.self] = k
		err = node(k)
		if errors.Is(err, cluster.ErrNodeDown) || errors.Is(err, cluster.ErrTimeout) {
			qm().partial.Inc()
			obs.DefaultTracer().Emit("bfs.partial_coverage", map[string]string{
				"node":  strconv.Itoa(int(k.self)),
				"level": strconv.Itoa(int(k.levels)),
			})
			err = fmt.Errorf("%w: %w", ErrPartialCoverage, err)
		}
		return err
	})
	for _, k := range kernels {
		if k == nil {
			continue
		}
		tot.EdgesTraversed += k.total.edges
		tot.VerticesVisited += k.total.visited
		tot.FringeSent += k.total.sent
		tot.ReplicaReads += k.total.replicaReads
		tot.FringeDropped += k.total.dropped
		tot.Levels = max(tot.Levels, k.levels)
		for i, ls := range k.stats {
			if i == len(tot.LevelStats) {
				tot.LevelStats = append(tot.LevelStats, LevelStat{Level: ls.Level})
			}
			c := &tot.LevelStats[i]
			c.Fringe += ls.Fringe
			c.ReplicaReads += ls.ReplicaReads
			c.Dropped += ls.Dropped
			c.ExpandNs = max(c.ExpandNs, ls.ExpandNs)
			c.TotalNs = max(c.TotalNs, ls.TotalNs)
		}
	}
	if err != nil {
		return tot, err
	}
	if tot.FringeDropped > 0 {
		tot.Coverage = float64(tot.VerticesVisited) / float64(tot.VerticesVisited+tot.FringeDropped)
		qm().foDropped.Add(tot.FringeDropped)
		if tr.AllowPartial {
			qm().foPartialAllowed.Inc()
			obs.DefaultTracer().Emit("bfs.partial_allowed", map[string]string{
				"dropped": strconv.FormatInt(tot.FringeDropped, 10),
			})
		}
	}
	if tot.ReplicaReads > 0 {
		qm().foReplicaReads.Add(tot.ReplicaReads)
	}
	return tot, nil
}
