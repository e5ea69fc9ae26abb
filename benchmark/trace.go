package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mssg"
	"mssg/internal/cluster"
	"mssg/internal/datacutter"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
	"mssg/internal/storage/vfs"
)

// The traced run measures every layer from outside: the engine is
// assembled from the same public constructors core.New uses, with timing
// wrappers at the three seams the program offers — cluster.Fabric,
// graphdb.Graph and vfs.FS (graphdb.Options.FS). Leaf calls number in the
// millions, so a wrapper only adds to per-node totals; spans are cut from
// the totals' deltas at operation boundaries.

// Classes of graphdb call a vfs call can happen inside.
const (
	classOther = iota
	classStore
	classFlush
	classAdjacency
	numClasses
)

var className = [numClasses]string{"other", "graphdb.store", "graphdb.flush", "graphdb.adjacency"}

// Kinds of vfs call.
const (
	vfsRead = iota
	vfsWrite
	vfsSync
	numVFS
)

var vfsName = [numVFS]string{"vfs.read", "vfs.write", "vfs.sync"}

// agg totals one kind of call: how many, how long, and how much (bytes,
// edges or neighbours, by kind).
type agg struct{ calls, ns, amount atomic.Int64 }

func (a *agg) add(start time.Time, amount int64) {
	a.calls.Add(1)
	a.ns.Add(int64(time.Since(start)))
	a.amount.Add(amount)
}

type aggSnap struct{ Calls, Ns, Amount int64 }

func (a *agg) snap() aggSnap {
	return aggSnap{a.calls.Load(), a.ns.Load(), a.amount.Load()}
}

func (s aggSnap) sub(o aggSnap) aggSnap {
	return aggSnap{s.Calls - o.Calls, s.Ns - o.Ns, s.Amount - o.Amount}
}

func (s aggSnap) plus(o aggSnap) aggSnap {
	return aggSnap{s.Calls + o.Calls, s.Ns + o.Ns, s.Amount + o.Amount}
}

// nodeAgg is everything the wrappers of one node have seen.
type nodeAgg struct {
	// class is the graphdb call class the node is inside, so the file
	// wrapper can hang its reads and writes under the right parent. With
	// Workers 1 a node runs one graphdb call at a time, except under
	// serve-mixed, where concurrent queries are all in classAdjacency.
	class atomic.Int32
	db    [numClasses]agg // amount: edges stored / neighbours returned
	send  agg             // amount: payload bytes
	recv  agg
	vfs   [numClasses][numVFS]agg // amount: bytes
}

type nodeSnap struct {
	DB   [numClasses]aggSnap
	Send aggSnap
	Recv aggSnap
	VFS  [numClasses][numVFS]aggSnap
}

func (n *nodeAgg) snap() nodeSnap {
	var s nodeSnap
	for c := range n.db {
		s.DB[c] = n.db[c].snap()
		for k := range n.vfs[c] {
			s.VFS[c][k] = n.vfs[c][k].snap()
		}
	}
	s.Send, s.Recv = n.send.snap(), n.recv.snap()
	return s
}

func (s nodeSnap) sub(o nodeSnap) nodeSnap {
	var d nodeSnap
	for c := range s.DB {
		d.DB[c] = s.DB[c].sub(o.DB[c])
		for k := range s.VFS[c] {
			d.VFS[c][k] = s.VFS[c][k].sub(o.VFS[c][k])
		}
	}
	d.Send, d.Recv = s.Send.sub(o.Send), s.Recv.sub(o.Recv)
	return d
}

func (s nodeSnap) plus(o nodeSnap) nodeSnap {
	var d nodeSnap
	for c := range s.DB {
		d.DB[c] = s.DB[c].plus(o.DB[c])
		for k := range s.VFS[c] {
			d.VFS[c][k] = s.VFS[c][k].plus(o.VFS[c][k])
		}
	}
	d.Send, d.Recv = s.Send.plus(o.Send), s.Recv.plus(o.Recv)
	return d
}

// vfsNs is the time spent in file calls made from inside graphdb calls.
func (s nodeSnap) vfsNs() (ns int64) {
	for c := classStore; c < numClasses; c++ {
		for k := range s.VFS[c] {
			ns += s.VFS[c][k].Ns
		}
	}
	return ns
}

// dbNs is the time spent inside graphdb store, flush and adjacency calls.
func (s nodeSnap) dbNs() int64 {
	return s.DB[classStore].Ns + s.DB[classFlush].Ns + s.DB[classAdjacency].Ns
}

// span is one traced interval. Aggregated leaves (Count > 0) cover their
// parent's interval and carry the number of calls and their summed time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op_id"`
	Node   int    `json:"node"` // -1: not on one node
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
	Amount int64  `json:"amount,omitempty"`
}

// layerTotals is the measured phase summed over operations and nodes.
type layerTotals struct {
	calls      nodeSnap // all nodes, all traced operations
	nodeTimeNs int64    // node goroutine time the operations cover
	residualNs int64    // of which outside every layer's spans
	// ingestNodeNs is the store filters' lifetime (nodes × run), and
	// ingestChildNs their time in recv wait, store and flush.
	ingestNodeNs, ingestChildNs int64
	ingestRunNs                 int64
	// queryNodeNs is node time inside query level loops (or, for engine
	// queries without level stats, inside execution); queryChildNs its
	// share in send, recv wait and adjacency.
	queryNodeNs, queryChildNs int64
	querySendNs               int64
}

// tracer owns the per-node totals, the span list and the layer sums of
// one traced run. A nil *tracer is the untraced run: every method is a
// no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	nodes []*nodeAgg
	reg   *obs.Registry // private registry for the Options.Metrics mirrors

	mu     sync.Mutex
	spans  []span
	totals layerTotals
	nextOp int
}

func newTracer(nodes int) *tracer {
	t := &tracer{t0: time.Now(), reg: obs.NewRegistry()}
	for i := 0; i < nodes; i++ {
		t.nodes = append(t.nodes, &nodeAgg{})
	}
	t.spans = append(t.spans, span{ID: 0, Parent: -1, Name: "workload", Node: -1})
	return t
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) addSpan(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) snapAll() []nodeSnap {
	out := make([]nodeSnap, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.snap()
	}
	return out
}

// opTrace is one operation (an ingest batch, a search, a traffic round)
// between begin and one of the end methods.
type opTrace struct {
	t      *tracer
	name   string
	id     int
	start  time.Time
	before []nodeSnap
}

func (t *tracer) begin(name string) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := t.nextOp
	t.nextOp++
	t.mu.Unlock()
	return &opTrace{t: t, name: name, id: id, start: time.Now(), before: t.snapAll()}
}

// finish cuts the operation's spans and returns the wrapped calls made
// during it, summed over nodes, and its wall time.
func (o *opTrace) finish(levels []query.LevelStat) (sum nodeSnap, wall int64) {
	t := o.t
	end := time.Now()
	after := t.snapAll()
	t.mu.Lock()
	defer t.mu.Unlock()
	s0, s1 := t.since(o.start), t.since(end)
	opID := t.addSpan(span{Parent: 0, Name: o.name, Op: o.id, Node: -1, Start: s0, End: s1})
	at := s0
	for _, l := range levels {
		t.addSpan(span{Parent: opID, Name: fmt.Sprintf("bfs.level.%d", l.Level), Op: o.id, Node: -1,
			Start: at, End: at + l.TotalNs, BusyNs: l.ExpandNs, Amount: l.Fringe})
		at += l.TotalNs
	}
	leaf := func(parent, node int, name string, a aggSnap) int {
		if a.Calls == 0 {
			return -1
		}
		return t.addSpan(span{Parent: parent, Name: name, Op: o.id, Node: node, Start: s0, End: s1,
			Count: a.Calls, BusyNs: a.Ns, Amount: a.Amount})
	}
	for i := range after {
		d := after[i].sub(o.before[i])
		sum = sum.plus(d)
		nodeID := t.addSpan(span{Parent: opID, Name: "node", Op: o.id, Node: i, Start: s0, End: s1})
		leaf(nodeID, i, "cluster.send", d.Send)
		leaf(nodeID, i, "cluster.recv_wait", d.Recv)
		for c := classOther; c < numClasses; c++ {
			parent := nodeID
			if c != classOther {
				if parent = leaf(nodeID, i, className[c], d.DB[c]); parent < 0 {
					continue
				}
			}
			for k := range d.VFS[c] {
				leaf(parent, i, vfsName[k], d.VFS[c][k])
			}
		}
	}
	t.spans[0].End = s1
	t.totals.calls = t.totals.calls.plus(sum)
	return sum, int64(end.Sub(o.start))
}

// endIngest closes an ingest batch whose filter graph ran for run.
func (o *opTrace) endIngest(run time.Duration) {
	if o == nil {
		return
	}
	sum, wall := o.finish(nil)
	n := int64(len(o.t.nodes))
	tt := &o.t.totals
	tt.nodeTimeNs += n * wall
	tt.residualNs += max(0, n*(wall-int64(run)))
	tt.ingestRunNs += int64(run)
	tt.ingestNodeNs += n * int64(run)
	tt.ingestChildNs += sum.Recv.Ns + sum.DB[classStore].Ns + sum.DB[classFlush].Ns
}

// endBFS closes a direct (engine-less) search; its level stats bound the
// time the nodes spent inside the level loop.
func (o *opTrace) endBFS(levels []query.LevelStat) {
	if o == nil {
		return
	}
	sum, wall := o.finish(levels)
	var inLevels int64
	for _, l := range levels {
		inLevels += l.TotalNs
	}
	inLevels = min(inLevels, wall)
	n := int64(len(o.t.nodes))
	tt := &o.t.totals
	tt.nodeTimeNs += n * wall
	tt.residualNs += n * (wall - inLevels)
	tt.queryNodeNs += n * inLevels
	tt.queryChildNs += sum.Send.Ns + sum.Recv.Ns + sum.DB[classAdjacency].Ns
	tt.querySendNs += sum.Send.Ns
}

// endTraffic closes a round of engine queries that executed for execNs in
// total (Σ Finished−Started). Concurrent queries cannot be told apart at
// the wrappers, so the round is one operation and the time outside level
// loops stays inside the query layer's self time.
func (o *opTrace) endTraffic(execNs int64) {
	if o == nil {
		return
	}
	sum, _ := o.finish(nil)
	n := int64(len(o.t.nodes))
	tt := &o.t.totals
	tt.nodeTimeNs += n * execNs
	tt.queryNodeNs += n * execNs
	tt.queryChildNs += sum.Send.Ns + sum.Recv.Ns + sum.DB[classAdjacency].Ns
	tt.querySendNs += sum.Send.Ns
}

// writeSpans writes the span list to path.
func (t *tracer) writeSpans(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- graphdb.Graph wrapper -------------------------------------------------

// tracedGraph times the three calls ingest and query make on a back-end.
// Embedding the concrete *grdb.DB promotes every other method, so the
// wrapper implements exactly the optional interfaces grDB does
// (Prefetcher, AsyncPrefetcher, Checkpointer, VertexScanner,
// GenerationReader, IOCounters, CacheStats, DegreeReader,
// MetadataResetter) and none it does not (BatchGraph): the type
// assertions in query and ingest take the branches they take untraced.
type tracedGraph struct {
	*grdb.DB
	agg *nodeAgg
}

func (g *tracedGraph) enter(class int32) (time.Time, int32) {
	return time.Now(), g.agg.class.Swap(class)
}

func (g *tracedGraph) StoreEdges(edges []graph.Edge) error {
	start, prev := g.enter(classStore)
	err := g.DB.StoreEdges(edges)
	g.agg.class.Store(prev)
	g.agg.db[classStore].add(start, int64(len(edges)))
	return err
}

func (g *tracedGraph) Flush() error {
	start, prev := g.enter(classFlush)
	err := g.DB.Flush()
	g.agg.class.Store(prev)
	g.agg.db[classFlush].add(start, 0)
	return err
}

func (g *tracedGraph) AdjacencyUsingMetadata(v graph.VertexID, out *graph.AdjList, md int32, op graphdb.MetaOp) error {
	before := out.Len()
	start, prev := g.enter(classAdjacency)
	err := g.DB.AdjacencyUsingMetadata(v, out, md, op)
	g.agg.class.Store(prev)
	g.agg.db[classAdjacency].add(start, int64(out.Len()-before))
	return err
}

// --- vfs.FS wrapper --------------------------------------------------------

type timingFS struct {
	vfs.FS
	agg *nodeAgg
}

func (f timingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: inner, agg: f.agg}, nil
}

type timingFile struct {
	vfs.File
	agg *nodeAgg
}

func (f timingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.agg.vfs[f.agg.class.Load()][vfsRead].add(start, int64(n))
	return n, err
}

func (f timingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.agg.vfs[f.agg.class.Load()][vfsWrite].add(start, int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.agg.vfs[f.agg.class.Load()][vfsSync].add(start, 0)
	return err
}

// --- cluster.Fabric wrapper ------------------------------------------------

type tracedFabric struct {
	cluster.Fabric
	eps []cluster.Endpoint
}

func newTracedFabric(inner cluster.Fabric, nodes []*nodeAgg) *tracedFabric {
	f := &tracedFabric{Fabric: inner}
	for i, a := range nodes {
		f.eps = append(f.eps, tracedEndpoint{Endpoint: inner.Endpoint(cluster.NodeID(i)), agg: a})
	}
	return f
}

func (f *tracedFabric) Endpoint(n cluster.NodeID) cluster.Endpoint { return f.eps[n] }

type tracedEndpoint struct {
	cluster.Endpoint
	agg *nodeAgg
}

func (e tracedEndpoint) Send(to cluster.NodeID, ch cluster.ChannelID, payload []byte) error {
	size := int64(len(payload)) // the fabric owns payload after Send
	start := time.Now()
	err := e.Endpoint.Send(to, ch, payload)
	e.agg.send.add(start, size)
	return err
}

func (e tracedEndpoint) Broadcast(ch cluster.ChannelID, payload []byte) error {
	peers := int64(e.Nodes() - 1)
	start := time.Now()
	err := e.Endpoint.Broadcast(ch, payload)
	e.agg.send.add(start, peers*int64(len(payload)))
	e.agg.send.calls.Add(peers - 1) // one message per peer
	return err
}

func (e tracedEndpoint) Recv(ch cluster.ChannelID) (cluster.Message, error) {
	start := time.Now()
	m, err := e.Endpoint.Recv(ch)
	e.agg.recv.add(start, int64(len(m.Payload)))
	return m, err
}

func (e tracedEndpoint) RecvCtx(ctx context.Context, ch cluster.ChannelID) (cluster.Message, error) {
	start := time.Now()
	m, err := e.Endpoint.RecvCtx(ctx, ch)
	e.agg.recv.add(start, int64(len(m.Payload)))
	return m, err
}

// --- the engine, assembled from the internal constructors -----------------

// engine is the slice of the public API the workloads drive. *mssg.Engine
// is the untraced implementation; tracedEngine mirrors it.
type engine interface {
	IngestEdges(edges []graph.Edge) (*ingest.Stats, error)
	BFS(cfg query.BFSConfig) (query.BFSResult, error)
	NewQueryEngine(cfg query.EngineConfig) (*query.Engine, error)
	SubmitBFSAs(ctx context.Context, qe *query.Engine, tenant string, cfg query.BFSConfig) (*query.Query, error)
	Databases() []graphdb.Graph
	Close() error
}

var _ engine = (*mssg.Engine)(nil)

// tracedEngine does what core.Engine does for an in-process, unreplicated,
// placement-less configuration, step for step, over wrapped layers.
type tracedEngine struct {
	cfg    mssg.Config
	tr     *tracer
	fabric cluster.Fabric
	dbs    []graphdb.Graph
	qes    []*query.Engine
	// lastRun is the filter graph's run time in the latest IngestEdges
	// (what core.Engine observes as ingest.run_ns).
	lastRun time.Duration
}

func newTracedEngine(cfg mssg.Config, tr *tracer) (*tracedEngine, error) {
	e := &tracedEngine{cfg: cfg, tr: tr}
	e.fabric = newTracedFabric(cluster.NewInProc(cfg.Backends, cfg.MailboxBuffer), tr.nodes)
	for i := 0; i < cfg.Backends; i++ {
		opts := cfg.DBOptions
		opts.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("node%03d", i))
		opts.FS = timingFS{FS: vfs.OS, agg: tr.nodes[i]}
		opts.Metrics = tr.reg
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			e.Close()
			return nil, err
		}
		db, err := graphdb.Open(cfg.Backend, opts)
		if err != nil {
			e.Close()
			return nil, err
		}
		raw, ok := db.(*grdb.DB)
		if !ok {
			db.Close()
			e.Close()
			return nil, fmt.Errorf("traced engine wraps grDB only, got %T", db)
		}
		e.dbs = append(e.dbs, &tracedGraph{DB: raw, agg: tr.nodes[i]})
	}
	return e, nil
}

type sliceReader struct {
	edges []graph.Edge
	pos   int
}

func (r *sliceReader) ReadEdge() (graph.Edge, error) {
	if r.pos >= len(r.edges) {
		return graph.Edge{}, io.EOF
	}
	r.pos++
	return r.edges[r.pos-1], nil
}

func (e *tracedEngine) IngestEdges(edges []graph.Edge) (*ingest.Stats, error) {
	icfg := e.cfg.Ingest
	icfg.FrontEnds, icfg.Backends = e.cfg.FrontEnds, e.cfg.Backends
	stats := &ingest.Stats{}
	g := datacutter.NewGraph()
	f := icfg.FrontEnds
	err := ingest.BuildGraph(g, icfg, stats,
		func(c int) (graph.EdgeReader, error) {
			return &sliceReader{edges: edges[len(edges)*c/f : len(edges)*(c+1)/f]}, nil
		},
		func(c int) graphdb.Graph { return e.dbs[c] },
		datacutter.PlaceCopies(f), datacutter.PlaceOnePerNode())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = datacutter.NewRuntime(e.fabric).RunWith(g, datacutter.RunOptions{})
	e.lastRun = time.Since(start)
	for _, qe := range e.qes {
		qe.InvalidateCache()
	}
	return stats, err
}

func (e *tracedEngine) BFS(cfg query.BFSConfig) (query.BFSResult, error) {
	return query.ParallelBFS(context.Background(), e.fabric, e.dbs, cfg)
}

func (e *tracedEngine) NewQueryEngine(cfg query.EngineConfig) (*query.Engine, error) {
	qe, err := query.NewEngine(e.fabric, e.dbs, cfg)
	if err == nil && qe.Cache() != nil {
		e.qes = append(e.qes, qe)
	}
	return qe, err
}

func (e *tracedEngine) SubmitBFSAs(ctx context.Context, qe *query.Engine, tenant string, cfg query.BFSConfig) (*query.Query, error) {
	return qe.BFSAs(ctx, tenant, cfg)
}

func (e *tracedEngine) Databases() []graphdb.Graph { return e.dbs }

func (e *tracedEngine) Close() error {
	var first error
	for _, db := range e.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := e.fabric.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
